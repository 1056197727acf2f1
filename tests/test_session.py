"""Streaming/batch equivalence tests for the session API.

The contract under test: ``run(sequence)`` is a thin wrapper over
``open_session`` + per-frame ``submit`` (with the frame's ground truth) +
``finish``, so submitting the frames yourself must be *bit-identical* to
the batch path — for detection and tracking, for constant and adaptive
windows, and for every ``search_policy`` variant.
"""

from __future__ import annotations

import pytest

from repro.core.backends import detection_backend_for, tracking_backend_for
from repro.core.session import SessionClosedError
from repro.core.spec import PipelineSpec
from repro.core.types import FrameKind


def assert_results_identical(batch, streamed):
    """Frame kinds, window sizes and detection boxes must match exactly."""
    assert len(batch) == len(streamed)
    for a, b in zip(batch.frames, streamed.frames):
        assert a.frame_index == b.frame_index
        assert a.kind is b.kind
        assert a.window_size == b.window_size
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.box.as_xywh() == db.box.as_xywh()
            assert da.object_id == db.object_id
            assert da.extrapolated == db.extrapolated


def open_on(pipeline, sequence):
    """A session on ``sequence``'s frame size, named after it as run() names it."""
    return pipeline.open_session(sequence.width, sequence.height, name=sequence.name)


def submit_all(session, sequence):
    """Submit every frame of ``sequence`` with its ground truth."""
    for index, frame in sequence.iter_frames():
        session.submit(frame, truth=sequence.truth_detections(index))


def run_streamed(spec, backend, sequence):
    session = open_on(spec.build(backend), sequence)
    submit_all(session, sequence)
    return session.finish()


@pytest.mark.parametrize(
    "spec",
    [
        PipelineSpec(extrapolation_window=2),
        PipelineSpec(extrapolation_window=4, sub_roi_grid=(1, 1)),
        PipelineSpec(extrapolation_window="adaptive"),
        PipelineSpec(extrapolation_window=2, exhaustive_search=True, search_policy="full"),
        PipelineSpec(extrapolation_window=2, exhaustive_search=True, search_policy="histogram"),
        PipelineSpec(extrapolation_window=2, exhaustive_search=True, search_policy="pruned"),
    ],
    ids=lambda spec: spec.describe(),
)
class TestStreamingBatchEquivalence:
    def test_tracking(self, small_sequence, spec):
        batch = spec.build(tracking_backend_for("mdnet", seed=3)).run(small_sequence)
        streamed = run_streamed(spec, tracking_backend_for("mdnet", seed=3), small_sequence)
        assert_results_identical(batch, streamed)

    def test_detection(self, multi_object_sequence, spec):
        batch = spec.build(detection_backend_for("yolov2", seed=2)).run(multi_object_sequence)
        streamed = run_streamed(
            spec, detection_backend_for("yolov2", seed=2), multi_object_sequence
        )
        assert_results_identical(batch, streamed)


class TestRunIsASessionWrapper:
    @pytest.mark.parametrize("window", [2, "adaptive"])
    def test_run_still_deterministic_across_repeats(self, small_sequence, window):
        """Every run starts from a fresh controller clone, adaptive ones too."""
        pipeline = PipelineSpec(extrapolation_window=window).build(
            tracking_backend_for("mdnet")
        )
        first = pipeline.run(small_sequence)
        second = pipeline.run(small_sequence)
        assert_results_identical(first, second)

    def test_run_after_a_failing_backend_still_works(self, small_sequence):
        class ExplodingBackend:
            network = None

            def start(self, stream, width, height):
                pass

            def infer(self, frame_index, luma, truth):
                raise RuntimeError("backend died")

        pipeline = PipelineSpec().build(ExplodingBackend())
        with pytest.raises(RuntimeError, match="backend died"):
            pipeline.run(small_sequence)
        # A failed run leaves nothing behind: a healthy run still works.
        pipeline.backend = tracking_backend_for("mdnet")
        pipeline.run(small_sequence)

    def test_run_after_a_failed_backend_start_still_works(self, small_sequence):
        class ExplodingStart:
            network = None

            def start(self, stream, width, height):
                raise ValueError("no first-frame annotation")

            def infer(self, frame_index, luma, truth):
                raise AssertionError("unreachable")

        pipeline = PipelineSpec().build(ExplodingStart())
        with pytest.raises(ValueError, match="annotation"):
            pipeline.run(small_sequence)
        pipeline.backend = tracking_backend_for("mdnet")
        pipeline.run(small_sequence)

    def test_adaptive_clone_starts_from_the_configured_initial_window(self):
        from repro.core.window import AdaptiveWindowController

        controller = AdaptiveWindowController(initial_window=2, max_window=8)
        for _ in range(6):  # sustained agreement grows the live window
            controller.observe_disagreement(0.0)
        assert controller.current_window > 2
        clone = controller.clone()
        assert clone.current_window == 2
        assert clone.observations == 0

    def test_standalone_sessions_do_not_contend(self, small_sequence):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        a = open_on(pipeline, small_sequence)
        b = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            a.submit(frame, truth=small_sequence.truth_detections(index))
            b.submit(frame, truth=small_sequence.truth_detections(index))
        assert_results_identical(a.finish(), b.finish())


class TestMidStreamBehaviour:
    def test_forced_iframe_resets_the_window_phase(self, small_sequence):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        force_at = 6  # mid-window: frames 4..7 would be I,E,E,E
        for index, frame in small_sequence.iter_frames():
            result = session.submit(
                frame,
                truth=small_sequence.truth_detections(index),
                force_inference=(index == force_at),
            )
        result = session.finish()
        kinds = [frame.kind for frame in result.frames]
        assert kinds[force_at] is FrameKind.INFERENCE
        # The window phase restarts at the forced I-frame: 3 E-frames follow.
        assert kinds[force_at + 1 : force_at + 4] == [FrameKind.EXTRAPOLATION] * 3
        assert kinds[force_at + 4] is FrameKind.INFERENCE

    def test_forcing_a_natural_iframe_is_identical_to_batch(self, small_sequence):
        spec = PipelineSpec(extrapolation_window=4)
        batch = spec.build(tracking_backend_for("mdnet")).run(small_sequence)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            # Index 8 is an I-frame anyway under EW-4; forcing it must not
            # perturb anything.
            session.submit(
                frame,
                truth=small_sequence.truth_detections(index),
                force_inference=(index == 8),
            )
        assert_results_identical(batch, session.finish())

    def test_next_frame_kind_predicts_every_frame(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=3).build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            predicted = session.next_frame_kind()
            truth = small_sequence.truth_detections(index)
            assert session.submit(frame, truth=truth).kind is predicted

    def test_next_frame_kind_with_motion_vectors_disabled(self, small_sequence):
        pipeline = PipelineSpec(expose_motion_vectors=False).build(
            tracking_backend_for("mdnet")
        )
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            assert session.next_frame_kind() is FrameKind.INFERENCE
            truth = small_sequence.truth_detections(index)
            assert session.submit(frame, truth=truth).kind is FrameKind.INFERENCE
        session.finish()


class TestSessionLifecycle:
    def test_submit_after_finish_raises(self, small_sequence):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        session.submit(small_sequence.frame(0), truth=small_sequence.truth_detections(0))
        session.finish()
        with pytest.raises(SessionClosedError):
            session.submit(small_sequence.frame(1))
        with pytest.raises(SessionClosedError):
            session.finish()

    def test_session_stats(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        submit_all(session, small_sequence)
        assert session.frames_submitted == small_sequence.num_frames
        result = session.finish()
        assert result.inference_count + result.extrapolation_count == len(result)
        assert result.inference_rate == pytest.approx(0.5, abs=0.05)
        assert sum(event.extrapolation_ops for event in result.telemetry) > 0

    def test_open_session_needs_dimensions_or_source(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="width and height"):
            pipeline.open_session(64, None)


class TestDimensionBoundSessions:
    """Sessions opened on (width, height) with truth arriving per frame."""

    def test_tracking_stream_matches_sequence_bound_run(self, small_sequence):
        spec = PipelineSpec(extrapolation_window=2)
        batch = spec.build(tracking_backend_for("mdnet", seed=3)).run(small_sequence)

        pipeline = spec.build(tracking_backend_for("mdnet", seed=3))
        session = pipeline.open_session(
            small_sequence.width, small_sequence.height, name=small_sequence.name
        )
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
        assert_results_identical(batch, session.finish())

    def test_detection_stream_matches_sequence_bound_run(self, multi_object_sequence):
        spec = PipelineSpec(extrapolation_window=2)
        batch = spec.build(detection_backend_for("yolov2", seed=2)).run(
            multi_object_sequence
        )
        pipeline = spec.build(detection_backend_for("yolov2", seed=2))
        session = pipeline.open_session(
            multi_object_sequence.width,
            multi_object_sequence.height,
            name=multi_object_sequence.name,
        )
        for index, frame in multi_object_sequence.iter_frames():
            session.submit(frame, truth=multi_object_sequence.truth_detections(index))
        assert_results_identical(batch, session.finish())

    @pytest.mark.parametrize("network", ["mdnet", "ncc"])
    def test_tracking_needs_an_annotated_object_on_its_first_frame(
        self, small_sequence, network
    ):
        """A tracker takes its target from its first I-frame's truth: without
        one, that frame raises; a fresh session fed truth matches run()."""
        spec = PipelineSpec(extrapolation_window=2)
        pipeline = spec.build(tracking_backend_for(network, seed=3))
        session = open_on(pipeline, small_sequence)
        with pytest.raises(ValueError, match="no annotated objects in the truth of frame 0"):
            session.submit(small_sequence.frame(0))
        assert session.frames_submitted == 0

        fresh = open_on(pipeline, small_sequence)
        submit_all(fresh, small_sequence)
        assert_results_identical(pipeline.run(small_sequence), fresh.finish())

    def test_take_results_drains_the_frame_buffer(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
            if index == 9:
                drained = session.take_results()
                assert [f.frame_index for f in drained] == list(range(10))
        remainder = session.finish()
        assert [f.frame_index for f in remainder.frames] == list(
            range(10, small_sequence.num_frames)
        )
        assert session.frames_submitted == small_sequence.num_frames


class TestTelemetry:
    """The observe-only per-frame hardware event stream."""

    def test_one_event_per_frame_mirroring_results(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))
        result = pipeline.run(small_sequence)
        assert len(result.telemetry) == len(result.frames)
        for frame, event in zip(result.frames, result.telemetry):
            assert event.frame_index == frame.frame_index
            assert event.kind is frame.kind
            assert event.rois == len(frame.detections)
            assert event.pixels == small_sequence.width * small_sequence.height
            assert event.stream == small_sequence.name
        # E-frames record actual extrapolation work.  (I-frames after the
        # first may record some too: the disagreement metric extrapolates a
        # prediction before inferring.)
        for frame, event in zip(result.frames, result.telemetry):
            if frame.kind is FrameKind.EXTRAPOLATION:
                assert event.extrapolation_ops > 0
        assert result.telemetry[0].extrapolation_ops == 0.0

    def test_take_telemetry_drains_like_take_results(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
            if index == 9:
                drained = session.take_telemetry()
                assert [e.frame_index for e in drained] == list(range(10))
        remainder = session.finish()
        assert [e.frame_index for e in remainder.telemetry] == list(
            range(10, small_sequence.num_frames)
        )
        with pytest.raises(SessionClosedError):
            session.take_telemetry()

    def test_telemetry_is_observe_only(self, small_sequence):
        """Draining (or not draining) telemetry never changes the outputs."""
        spec = PipelineSpec(extrapolation_window=2)
        batch = spec.build(tracking_backend_for("mdnet")).run(small_sequence)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        session = open_on(pipeline, small_sequence)
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
            session.take_telemetry()
        assert_results_identical(batch, session.finish())
