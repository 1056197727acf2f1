"""Tests for the sharded execution core (ShardedExecutor + FrameTransport)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import detection_backend_for, tracking_backend_for
from repro.core.executor import (
    ExecutionSpec,
    ShardedExecutor,
    ShardError,
    ShardSchedule,
    SharedMemorySlotReader,
    SharedMemoryTransport,
    _assert_frame_free,
)
from repro.core.spec import PipelineSpec

from test_session import assert_results_identical


def _frame(seed: int, shape=(24, 32)) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 255, size=shape, dtype=np.uint8)


class TestValidation:
    def test_execution_spec(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExecutionSpec(workers=0)
        with pytest.raises(ValueError, match="unknown transport"):
            ExecutionSpec(transport="smoke-signals")

    def test_shard_schedule(self):
        with pytest.raises(ValueError, match="e_frame_burst"):
            ShardSchedule(e_frame_burst=0)
        with pytest.raises(ValueError, match="max_inference_batch"):
            ShardSchedule(max_inference_batch=0)
        with pytest.raises(ValueError, match="unknown policy"):
            ShardSchedule(policy="greedy")
        with pytest.raises(ValueError, match="deadline_frames"):
            ShardSchedule(deadline_frames=0)

    def test_executor_rejects_pickle_transport(self):
        """The legacy whole-sequence process pool is gone: "pickle" is unknown."""
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="unknown transport"):
            ShardedExecutor(pipeline, transport="pickle")

    def test_inproc_transport_cannot_cross_processes(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="cannot cross process boundaries"):
            ShardedExecutor(pipeline, workers=2, transport="inproc")

    def test_single_worker_always_resolves_inproc(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        for transport in ("auto", "shm", "inproc"):
            executor = ShardedExecutor(pipeline, workers=1, transport=transport)
            assert executor.transport_mode == "inproc"
            executor.close()


class TestFrameGuard:
    def test_rejects_raw_arrays(self):
        with pytest.raises(TypeError, match="refusing to pickle"):
            _assert_frame_free(_frame(0))

    def test_rejects_arrays_nested_in_containers(self):
        with pytest.raises(TypeError, match="shared-memory transport"):
            _assert_frame_free(("frame", {"payload": [_frame(1)]}))

    def test_accepts_small_control_payloads(self):
        _assert_frame_free(("frame", "seq0", None, False))


class TestSharedMemoryTransport:
    def test_roundtrip_preserves_pixels(self):
        transport = SharedMemoryTransport()
        reader = SharedMemorySlotReader()
        try:
            frame = _frame(2)
            ref = transport.send(frame)
            view = reader.read(ref)
            assert view.shape == frame.shape
            assert view.dtype == frame.dtype
            np.testing.assert_array_equal(view, frame)
            # The view maps the shared segment, not a pickled copy.
            assert view.base is not None
        finally:
            reader.close()
            transport.close()

    def test_slot_reuse_bumps_generation_and_stales_old_refs(self):
        transport = SharedMemoryTransport()
        reader = SharedMemorySlotReader()
        try:
            first = transport.send(_frame(3))
            reader.release(first)
            second = transport.send(_frame(4))
            # Same size class, freed slot: the ring reuses it.
            assert (second.segment, second.slot) == (first.segment, first.slot)
            assert second.generation == first.generation + 1
            with pytest.raises(RuntimeError, match="stale frame ref"):
                reader.read(first)
            np.testing.assert_array_equal(reader.read(second), _frame(4))
        finally:
            reader.close()
            transport.close()

    def test_full_ring_grows_a_new_segment(self):
        transport = SharedMemoryTransport(slots_per_segment=2)
        reader = SharedMemorySlotReader()
        try:
            refs = [transport.send(_frame(seed)) for seed in range(3)]
            assert transport.segments_allocated == 2
            assert transport.slots_in_flight == 3
            for seed, ref in enumerate(refs):
                np.testing.assert_array_equal(reader.read(ref), _frame(seed))
        finally:
            reader.close()
            transport.close()

    def test_distinct_size_classes_get_distinct_segments(self):
        transport = SharedMemoryTransport()
        try:
            small = transport.send(_frame(5, shape=(8, 8)))
            large = transport.send(_frame(6, shape=(64, 64)))
            assert small.segment != large.segment
        finally:
            transport.close()

    def test_close_unlinks_segments(self):
        transport = SharedMemoryTransport()
        ref = transport.send(_frame(7))
        transport.close()
        with pytest.raises(FileNotFoundError):
            SharedMemorySlotReader().read(ref)


class TestEngineLease:
    def test_standalone_session_rejects_the_pipelines_own_engine(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="own engine"):
            pipeline.open_session(width=64, height=64, backend=pipeline.backend)

    def test_shard_streams_never_share_a_backend(self, tiny_tracking_dataset):
        """Concurrent shard ownership: every session gets its own engine copy."""
        pipeline = PipelineSpec(extrapolation_window=4).build(
            tracking_backend_for("mdnet")
        )
        executor = ShardedExecutor(pipeline)
        try:
            sequences = tiny_tracking_dataset.sequences[:2]
            for index, sequence in enumerate(sequences):
                executor.open_stream(f"s{index}", source=sequence)
            shard = executor.shard_of("s0")
            backends = [
                shard.core.stream(f"s{index}").session.backend
                for index in range(len(sequences))
            ]
            assert backends[0] is not backends[1]
            assert all(backend is not pipeline.backend for backend in backends)
        finally:
            executor.close()


class TestShardedRunDataset:
    @pytest.mark.parametrize("task", ["tracking", "detection"])
    def test_sharded_matches_serial(
        self, task, tiny_tracking_dataset, tiny_detection_dataset
    ):
        dataset = (
            tiny_tracking_dataset if task == "tracking" else tiny_detection_dataset
        )
        backend_for = (
            tracking_backend_for if task == "tracking" else detection_backend_for
        )
        backend_name = "mdnet" if task == "tracking" else "yolov2"
        spec = PipelineSpec(extrapolation_window=4)
        serial = spec.build(backend_for(backend_name)).run_dataset(dataset)
        sharded = spec.build(backend_for(backend_name)).run_dataset(
            dataset, max_workers=2
        )
        assert len(serial) == len(sharded)
        for left, right in zip(serial, sharded):
            assert_results_identical(left, right)

    def test_sharded_run_routes_through_executor_without_pickling_frames(
        self, tiny_tracking_dataset
    ):
        """Every frame crosses via the transport; none ride the pipe."""
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        executor = ShardedExecutor(pipeline, workers=2)
        try:
            assert executor.transport_mode == "shm"
            outcomes = executor.run_sequences(tiny_tracking_dataset.sequences)
            total = sum(len(s) for s in tiny_tracking_dataset.sequences)
            assert executor.transport.frames_sent == total
            assert sum(len(result) for result, _ in outcomes) == total
        finally:
            executor.close()

    def test_worker_failure_surfaces_as_shard_error(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        executor = ShardedExecutor(pipeline, workers=2)
        try:
            executor.open_stream("live", width=48, height=48, name="live")
            # First frame of a live tracking stream needs truth: the worker
            # session raises, and the failure must carry its traceback back.
            executor.submit("live", _frame(8, shape=(48, 48)))
            with pytest.raises(ShardError, match="no annotated objects"):
                executor.drain()
        finally:
            executor.close()


class TestShardedEquivalenceProperty:
    """Sharded output is bit-identical to serial for every policy mix."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        search_policy=st.sampled_from(["full", "histogram", "pruned"]),
        scheduling_policy=st.sampled_from(["fair", "energy"]),
        forced=st.sets(st.integers(min_value=1, max_value=23), max_size=4),
    )
    def test_sharded_matches_serial(
        self, small_sequence, fast_motion_sequence, search_policy,
        scheduling_policy, forced,
    ):
        spec = PipelineSpec(extrapolation_window=4, search_policy=search_policy)
        sequences = [small_sequence, fast_motion_sequence]

        serial = []
        for sequence in sequences:
            session = spec.build(tracking_backend_for("mdnet")).open_session(
                source=sequence
            )
            for index, frame in sequence.iter_frames():
                session.submit(frame, force_inference=index in forced)
            serial.append(session.finish())

        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")),
            workers=2,
            schedule=ShardSchedule(policy=scheduling_policy),
        )
        try:
            for position, sequence in enumerate(sequences):
                executor.open_stream(f"s{position}", source=sequence)
            for index in range(max(len(s) for s in sequences)):
                for position, sequence in enumerate(sequences):
                    if index < len(sequence):
                        executor.submit(
                            f"s{position}",
                            sequence.frame(index),
                            force_inference=index in forced,
                        )
            executor.drain()
            for position, expected in enumerate(serial):
                result, _stats = executor.finish_stream(f"s{position}")
                assert_results_identical(expected, result)
        finally:
            executor.close()


class TestFailureIsolation:
    """A crashed stream (or worker) fails only itself under isolation."""

    def _open_pair(self, workers: int, sequence):
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")),
            workers=workers,
            isolate_failures=True,
        )
        executor.open_stream(
            "bad", width=sequence.width, height=sequence.height, name="bad"
        )
        executor.open_stream("good", source=sequence, name="good")
        return executor

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_failure_scopes_to_stream(self, small_sequence, workers):
        executor = self._open_pair(workers, small_sequence)
        try:
            # First frame of a live tracking stream with no truth: its
            # session raises inside the shard.
            executor.submit("bad", _frame(8, shape=small_sequence.frame(0).shape))
            for index, frame in small_sequence.iter_frames():
                executor.submit("good", frame)
            executor.drain()  # must NOT raise: only 'bad' is lost
            failures = executor.stream_failures
            assert set(failures) == {"bad"}
            assert "no annotated objects" in failures["bad"]
            from repro.core.executor import StreamFailedError

            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.finish_stream("bad")
            result, _stats = executor.finish_stream("good")
            assert len(result.frames) == len(small_sequence)
        finally:
            executor.close()

    def test_isolated_failure_matches_serial_for_survivors(self, small_sequence):
        """The surviving stream's output is untouched by its neighbour dying."""
        spec = PipelineSpec(extrapolation_window=4)
        session = spec.build(tracking_backend_for("mdnet")).open_session(
            source=small_sequence
        )
        for _index, frame in small_sequence.iter_frames():
            session.submit(frame)
        expected = session.finish()

        executor = self._open_pair(2, small_sequence)
        try:
            executor.submit("bad", _frame(8, shape=small_sequence.frame(0).shape))
            for _index, frame in small_sequence.iter_frames():
                executor.submit("good", frame)
            executor.drain()
            result, _stats = executor.finish_stream("good")
            assert_results_identical(expected, result)
        finally:
            executor.close()

    def test_worker_death_fails_only_its_streams(self, small_sequence):
        from repro.core.executor import StreamFailedError

        executor = self._open_pair(2, small_sequence)
        try:
            bad_shard = executor.shard_of("bad")
            good_shard = executor.shard_of("good")
            assert bad_shard is not good_shard  # round-robin placement
            bad_shard.process.kill()
            bad_shard.process.join(timeout=10.0)
            # Submits to the dead shard surface a descriptive per-stream
            # failure; the sibling shard keeps serving.
            with pytest.raises(StreamFailedError, match="died unexpectedly"):
                for _ in range(64):
                    executor.submit(
                        "bad", _frame(9, shape=small_sequence.frame(0).shape)
                    )
            for _index, frame in small_sequence.iter_frames():
                executor.submit("good", frame)
            executor.drain()
            assert "bad" in executor.stream_failures
            assert "died unexpectedly" in executor.stream_failures["bad"]
            result, _stats = executor.finish_stream("good")
            assert len(result.frames) == len(small_sequence)
        finally:
            executor.close()

    def test_default_mode_still_propagates_raw_errors(self, small_sequence):
        """Without isolation the historical semantics hold: the in-process
        path re-raises the session exception itself (see also
        test_worker_failure_surfaces_as_shard_error for workers=2)."""
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")), workers=1
        )
        try:
            executor.open_stream("live", width=48, height=48, name="live")
            executor.submit("live", _frame(8, shape=(48, 48)))
            with pytest.raises(ValueError, match="no annotated objects"):
                executor.drain()
        finally:
            executor.close()
