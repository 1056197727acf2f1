"""Streaming/batch equivalence tests for the session API.

The contract under test: ``run(sequence)`` is a thin wrapper over
``open_session`` + per-frame ``submit`` + ``finish``, so submitting the
frames yourself must be *bit-identical* to the batch path — for detection
and tracking, for constant and adaptive windows, and for every
``search_policy`` variant.
"""

from __future__ import annotations

import pytest

from repro.core.backends import detection_backend_for, tracking_backend_for
from repro.core.session import SessionClosedError, StreamOracle
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


def run_streamed(spec, backend, sequence, **submit_kwargs):
    pipeline = spec.build(backend)
    session = pipeline.open_session(source=sequence)
    for _, frame in sequence.iter_frames():
        session.submit(frame, **submit_kwargs)
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

            def start_sequence(self, sequence):
                pass

            def infer(self, frame_index, luma, sequence):
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

            def start_sequence(self, sequence):
                raise ValueError("no first-frame annotation")

            def infer(self, frame_index, luma, sequence):
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
        a = pipeline.open_session(source=small_sequence)
        b = pipeline.open_session(source=small_sequence)
        for _, frame in small_sequence.iter_frames():
            a.submit(frame)
            b.submit(frame)
        assert_results_identical(a.finish(), b.finish())


class TestMidStreamBehaviour:
    def test_forced_iframe_resets_the_window_phase(self, small_sequence):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        force_at = 6  # mid-window: frames 4..7 would be I,E,E,E
        for index, frame in small_sequence.iter_frames():
            result = session.submit(frame, force_inference=(index == force_at))
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
        session = pipeline.open_session(source=small_sequence)
        for index, frame in small_sequence.iter_frames():
            # Index 8 is an I-frame anyway under EW-4; forcing it must not
            # perturb anything.
            session.submit(frame, force_inference=(index == 8))
        assert_results_identical(batch, session.finish())

    def test_next_frame_kind_predicts_every_frame(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=3).build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        for _, frame in small_sequence.iter_frames():
            predicted = session.next_frame_kind()
            assert session.submit(frame).kind is predicted

    def test_next_frame_kind_with_motion_vectors_disabled(self, small_sequence):
        pipeline = PipelineSpec(expose_motion_vectors=False).build(
            tracking_backend_for("mdnet")
        )
        session = pipeline.open_session(source=small_sequence)
        for _, frame in small_sequence.iter_frames():
            assert session.next_frame_kind() is FrameKind.INFERENCE
            assert session.submit(frame).kind is FrameKind.INFERENCE
        session.finish()


class TestSessionLifecycle:
    def test_submit_after_finish_raises(self, small_sequence):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        session.submit(small_sequence.frame(0))
        session.finish()
        with pytest.raises(SessionClosedError):
            session.submit(small_sequence.frame(1))
        with pytest.raises(SessionClosedError):
            session.finish()

    def test_session_stats(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        for _, frame in small_sequence.iter_frames():
            session.submit(frame)
        assert session.frames_submitted == small_sequence.num_frames
        result = session.finish()
        assert result.inference_count + result.extrapolation_count == len(result)
        assert result.inference_rate == pytest.approx(0.5, abs=0.05)
        assert sum(event.extrapolation_ops for event in result.telemetry) > 0

    def test_truth_rejected_for_sequence_bound_sessions(self, small_sequence):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        truth = small_sequence.truth_detections(0)
        with pytest.raises(ValueError, match="without"):
            session.submit(small_sequence.frame(0), truth=truth)

    def test_open_session_needs_dimensions_or_source(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="width and height"):
            pipeline.open_session()


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

    def test_oracle_requires_in_order_frames(self):
        oracle = StreamOracle("cam", 64, 48)
        with pytest.raises(ValueError, match="in order"):
            oracle.observe(1, None, [])

    def test_failed_first_submit_is_retryable_with_truth(self, small_sequence):
        """A tracking backend cannot start without frame-0 truth; the failed
        submit must roll the oracle back so the retry (with truth) works."""
        spec = PipelineSpec(extrapolation_window=2)
        pipeline = spec.build(tracking_backend_for("mdnet", seed=3))
        session = pipeline.open_session(
            small_sequence.width, small_sequence.height, name=small_sequence.name
        )
        with pytest.raises(ValueError, match="no annotated objects"):
            session.submit(small_sequence.frame(0))  # no truth: backend start fails
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
        batch = spec.build(tracking_backend_for("mdnet", seed=3)).run(small_sequence)
        assert_results_identical(batch, session.finish())

    def test_oracle_truth_window_is_bounded(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(
            tracking_backend_for("mdnet", seed=3)
        )
        session = pipeline.open_session(
            small_sequence.width, small_sequence.height, name=small_sequence.name
        )
        for index, frame in small_sequence.iter_frames():
            session.submit(frame, truth=small_sequence.truth_detections(index))
        oracle = session._oracle
        assert len(oracle._truth) <= StreamOracle.TRUTH_WINDOW + 1

    def test_take_results_drains_the_frame_buffer(self, small_sequence):
        pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
        session = pipeline.open_session(source=small_sequence)
        for index, frame in small_sequence.iter_frames():
            session.submit(frame)
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
        session = pipeline.open_session(source=small_sequence)
        for index, frame in small_sequence.iter_frames():
            session.submit(frame)
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
        session = pipeline.open_session(source=small_sequence)
        for _, frame in small_sequence.iter_frames():
            session.submit(frame)
            session.take_telemetry()
        assert_results_identical(batch, session.finish())
