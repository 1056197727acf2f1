"""Tests for the end-to-end Euphrates pipeline."""

from __future__ import annotations

import pytest

from repro.core.backends import tracking_backend_for, detection_backend_for
from repro.core.executor import StreamFailedError
from repro.core.pipeline import EuphratesPipeline
from repro.core.session import measure_disagreement
from repro.core.spec import PipelineSpec
from repro.core.types import DatasetRunResult, FrameKind
from repro.core.window import AdaptiveWindowController, ConstantWindowController
from repro.motion.block_matching import SearchStrategy

from test_session import open_on, submit_all


class _ExplodingBackend:
    """A backend whose every inference raises (module level: picklable)."""

    network = None

    def start(self, stream, width, height):
        pass

    def infer(self, frame_index, luma, truth):
        raise RuntimeError("backend died")


class TestScheduling:
    def test_first_frame_is_always_inference(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=8).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert result.frames[0].kind is FrameKind.INFERENCE

    def test_constant_window_pattern(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        kinds = [frame.kind for frame in result.frames]
        # Frames 0, 4, 8, ... are I-frames; everything else is extrapolated.
        for index, kind in enumerate(kinds):
            expected = FrameKind.INFERENCE if index % 4 == 0 else FrameKind.EXTRAPOLATION
            assert kind is expected

    def test_ew1_never_extrapolates(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=1).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert result.extrapolation_count == 0
        assert result.inference_rate == 1.0

    def test_inference_rate_matches_window(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert result.inference_rate == pytest.approx(0.5, abs=0.05)

    def test_disabled_motion_vectors_forces_inference(self, small_sequence):
        """Without the Euphrates ISP augmentation every frame is an I-frame."""
        pipeline = PipelineSpec(
            extrapolation_window=4, expose_motion_vectors=False
        ).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert result.inference_rate == 1.0

    def test_window_size_recorded_per_frame(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert {frame.window_size for frame in result.frames} == {4}


class TestResults:
    def test_every_frame_has_a_result(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert len(result) == small_sequence.num_frames
        assert all(frame.detections for frame in result.frames)

    def test_extrapolated_frames_are_flagged(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        for frame in result.frames:
            for detection in frame.detections:
                assert detection.extrapolated == frame.is_extrapolated

    def test_extrapolated_boxes_follow_target(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet", seed=3))
        result = pipeline.run(small_sequence)
        target = small_sequence.primary_object_id
        ious = []
        for frame in result.frames:
            if not frame.is_extrapolated:
                continue
            truth = small_sequence.truth_for(target)[frame.frame_index]
            if truth is None:
                continue
            ious.append(frame.best_for(truth).box.iou(truth))
        assert ious
        assert sum(ious) / len(ious) > 0.6

    def test_detection_pipeline_handles_multiple_objects(self, multi_object_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(detection_backend_for("yolov2", seed=2))
        result = pipeline.run(multi_object_sequence)
        extrapolated_frames = [f for f in result.frames if f.is_extrapolated]
        assert extrapolated_frames
        assert all(len(f.detections) >= 2 for f in extrapolated_frames)

    def test_run_dataset_returns_one_result_per_sequence(self, tiny_tracking_dataset):
        pipeline = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        results = pipeline.run_dataset(tiny_tracking_dataset)
        assert len(results) == len(tiny_tracking_dataset)
        names = {result.sequence_name for result in results}
        assert names == {sequence.name for sequence in tiny_tracking_dataset}

    def test_extrapolation_ops_accumulate(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        result = DatasetRunResult(sequences=pipeline.run_dataset([small_sequence]))
        assert result.extrapolation_ops == sum(
            event.extrapolation_ops for event in result.sequences[0].telemetry
        )
        assert result.extrapolation_ops > 0


class TestAdaptiveMode:
    def test_adaptive_controller_receives_feedback(self, small_sequence):
        controller = AdaptiveWindowController(initial_window=2)
        pipeline = EuphratesPipeline(tracking_backend_for("mdnet"), controller)
        session = open_on(pipeline, small_sequence)
        submit_all(session, small_sequence)
        session.finish()
        # The session's own clone observed disagreement at I-frames ...
        assert session.window_controller.observations
        # ... and run() learns in its own clone too, never in the pipeline's.
        pipeline.run(small_sequence)
        assert controller.observations == 0

    def test_adaptive_window_varies(self, tiny_tracking_dataset):
        controller = AdaptiveWindowController(initial_window=2, max_window=8)
        pipeline = EuphratesPipeline(tracking_backend_for("mdnet"), controller)
        results = pipeline.run_dataset(tiny_tracking_dataset)
        windows = {f.window_size for r in results for f in r.frames}
        assert len(windows) > 1  # the window actually adapted

    def test_adaptive_window_string_spec(self):
        pipeline = PipelineSpec(extrapolation_window="adaptive").build(tracking_backend_for("mdnet"))
        assert isinstance(pipeline.window_controller, AdaptiveWindowController)
        with pytest.raises(ValueError):
            PipelineSpec(extrapolation_window="sometimes")


class TestSpecBuildOptions:
    def test_block_size_and_strategy_propagate(self):
        pipeline = PipelineSpec(
            extrapolation_window=2,
            block_size=32,
            exhaustive_search=True,
            sub_roi_grid=(1, 1),
        ).build(tracking_backend_for("mdnet"))
        assert pipeline.config.block_matching.block_size == 32
        assert pipeline.config.block_matching.strategy is SearchStrategy.EXHAUSTIVE
        assert pipeline.config.extrapolation.sub_roi_grid == (1, 1)

    def test_default_controller_is_constant(self):
        pipeline = PipelineSpec(extrapolation_window=3).build(tracking_backend_for("mdnet"))
        assert isinstance(pipeline.window_controller, ConstantWindowController)
        assert pipeline.window_controller.current_window == 3


class TestDisagreementMetric:
    def test_identical_results_have_zero_disagreement(self):
        from repro.core.geometry import BoundingBox
        from repro.core.types import Detection

        detections = [Detection(box=BoundingBox(0, 0, 10, 10), object_id=1)]
        assert measure_disagreement(detections, detections) == pytest.approx(0.0)

    def test_disjoint_results_have_full_disagreement(self):
        from repro.core.geometry import BoundingBox
        from repro.core.types import Detection

        inferred = [Detection(box=BoundingBox(0, 0, 10, 10), object_id=1)]
        predicted = [Detection(box=BoundingBox(50, 50, 10, 10), object_id=1)]
        assert measure_disagreement(inferred, predicted) == pytest.approx(1.0)

    def test_empty_lists_have_zero_disagreement(self):
        assert measure_disagreement([], []) == 0.0

    def test_anonymous_matching_is_one_to_one(self):
        """Two inferred boxes cannot both pair with the same prediction."""
        from repro.core.geometry import BoundingBox
        from repro.core.types import Detection

        predicted = [Detection(box=BoundingBox(0, 0, 10, 10))]
        inferred = [
            Detection(box=BoundingBox(0, 0, 10, 10)),  # perfect match
            Detection(box=BoundingBox(2, 2, 10, 10)),  # would also overlap
        ]
        # Only the best pair is counted; the second inferred box is unmatched
        # evidence, not a duplicate report against the same prediction.
        assert measure_disagreement(inferred, predicted) == pytest.approx(0.0)

    def test_non_overlapping_anonymous_boxes_are_not_paired(self):
        """IoU = 0 is no evidence of a pair and must not poison the metric."""
        from repro.core.geometry import BoundingBox
        from repro.core.types import Detection

        predicted = [Detection(box=BoundingBox(100, 100, 10, 10))]
        inferred = [Detection(box=BoundingBox(0, 0, 10, 10))]
        assert measure_disagreement(inferred, predicted) == 0.0

    def test_greedy_matching_prefers_best_iou(self):
        from repro.core.geometry import BoundingBox
        from repro.core.types import Detection

        predicted = [
            Detection(box=BoundingBox(0, 0, 10, 10)),
            Detection(box=BoundingBox(8, 0, 10, 10)),
        ]
        inferred = [Detection(box=BoundingBox(0, 0, 10, 10))]
        # Pairs with the identical box (IoU 1), not the offset one.
        assert measure_disagreement(inferred, predicted) == pytest.approx(0.0)


class TestParallelRunDataset:
    def test_parallel_matches_serial(self, tiny_tracking_dataset):
        serial = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        parallel = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        serial_results = serial.run_dataset(tiny_tracking_dataset)
        parallel_results = parallel.run_dataset(tiny_tracking_dataset, max_workers=2)
        assert [r.sequence_name for r in serial_results] == [
            r.sequence_name for r in parallel_results
        ]
        for s, p in zip(serial_results, parallel_results):
            assert len(s) == len(p)
            for fs, fp in zip(s.frames, p.frames):
                assert fs.kind is fp.kind
                for ds, dp in zip(fs.detections, fp.detections):
                    assert ds.box.as_xywh() == pytest.approx(dp.box.as_xywh())
        for s, p in zip(serial_results, parallel_results):
            assert [e.extrapolation_ops for e in p.telemetry] == pytest.approx(
                [e.extrapolation_ops for e in s.telemetry]
            )

    def test_adaptive_results_do_not_depend_on_the_worker_count(
        self, tiny_tracking_dataset
    ):
        """Every sequence adapts from a fresh clone, at any worker count."""

        def run(workers):
            pipeline = PipelineSpec(extrapolation_window="adaptive").build(
                tracking_backend_for("mdnet")
            )
            results = pipeline.run_dataset(tiny_tracking_dataset, max_workers=workers)
            assert pipeline.window_controller.observations == 0
            return [
                (
                    [
                        (f.kind, f.window_size, [d.box.as_xywh() for d in f.detections])
                        for f in result.frames
                    ],
                    [(e.motion_ops, e.extrapolation_ops) for e in result.telemetry],
                )
                for result in results
            ]

        one = run(1)
        assert run(2) == one
        assert run(3) == one

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_sequence_raises_stream_failed_error(
        self, tiny_tracking_dataset, workers
    ):
        pipeline = PipelineSpec().build(_ExplodingBackend())
        with pytest.raises(StreamFailedError, match="backend died"):
            pipeline.run_dataset(tiny_tracking_dataset, max_workers=workers)
