"""Tests for the sharded execution core (ShardedExecutor + FrameTransport)."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import detection_backend_for, tracking_backend_for
from repro.core.executor import (
    ShardedExecutor,
    ShardError,
    ShardSchedule,
    SharedMemorySlotReader,
    SharedMemoryTransport,
    StreamFailedError,
    _assert_frame_free,
    _attach_segment,
)
from repro.core.spec import PipelineSpec

from test_session import assert_results_identical, open_on


def _frame(seed: int, shape=(24, 32)) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 255, size=shape, dtype=np.uint8)


def _open_on(executor, key, sequence):
    """Open ``key`` on ``sequence``'s frame size, named after it as run() names it."""
    executor.open_stream(
        key, name=sequence.name, width=sequence.width, height=sequence.height
    )


def _submit(executor, key, sequence, index, **kwargs):
    """Submit frame ``index`` of ``sequence`` with its ground truth."""
    executor.submit(
        key, sequence.frame(index), truth=sequence.truth_detections(index), **kwargs
    )


class TestValidation:
    def test_execution_spec(self):
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardedExecutor(pipeline, workers=0)
        with pytest.raises(ValueError, match="unknown transport"):
            ShardedExecutor(pipeline, transport="smoke-signals")

    def test_shard_schedule(self):
        with pytest.raises(ValueError, match="e_frame_burst"):
            ShardSchedule(e_frame_burst=0)
        with pytest.raises(ValueError, match="max_inference_batch"):
            ShardSchedule(max_inference_batch=0)

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

    def test_read_returns_a_read_only_view(self):
        """Only the producer writes a slot; a worker cannot scribble on one."""
        transport = SharedMemoryTransport()
        reader = SharedMemorySlotReader()
        try:
            view = reader.read(transport.send(_frame(2)))
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0
        finally:
            reader.close()
            transport.close()

    def test_slot_reuse_bumps_generation_and_stales_old_refs(self):
        transport = SharedMemoryTransport()
        reader = SharedMemorySlotReader()
        try:
            refs = [transport.send(_frame(seed)) for seed in range(16)]
            first = refs[0]
            transport.release(first)
            assert transport.slots_in_flight == 15
            # The segment's one free slot is reused before a new segment grows.
            second = transport.send(_frame(99))
            assert transport.segments_allocated == 1
            assert (second.segment, second.slot) == (first.segment, first.slot)
            assert second.generation > first.generation
            with pytest.raises(RuntimeError, match="stale frame ref"):
                reader.read(first)
            np.testing.assert_array_equal(reader.read(second), _frame(99))
            # A stale ref hands back nothing: the slot belongs to `second`.
            transport.release(first)
            assert transport.slots_in_flight == 16
        finally:
            reader.close()
            transport.close()

    def test_full_ring_grows_a_new_segment(self):
        transport = SharedMemoryTransport()
        reader = SharedMemorySlotReader()
        try:
            refs = [transport.send(_frame(seed)) for seed in range(17)]
            assert transport.segments_allocated == 2
            assert transport.slots_in_flight == 17
            for seed, ref in enumerate(refs):
                np.testing.assert_array_equal(reader.read(ref), _frame(seed))
            for ref in refs:
                transport.release(ref)
            assert transport.slots_in_flight == 0
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

    def test_attach_never_talks_to_the_resource_tracker(self, monkeypatch):
        """Only the producer registers segments: workers share its tracker,
        and two attaching one segment at once would race there."""
        from multiprocessing import resource_tracker

        calls = []
        for name in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker, name, lambda *args, name=name: calls.append(name)
            )
        transport = SharedMemoryTransport()
        try:
            ref = transport.send(_frame(10))
            calls.clear()
            _attach_segment(ref.segment).close()
            assert calls == []
        finally:
            transport.close()

    def test_close_unlinks_segments(self):
        transport = SharedMemoryTransport()
        ref = transport.send(_frame(7))
        transport.close()
        with pytest.raises(FileNotFoundError):
            SharedMemorySlotReader().read(ref)


class TestEngineLease:
    def test_shard_streams_never_share_a_backend(self, tiny_tracking_dataset):
        """Concurrent shard ownership: every session gets its own engine copy."""
        pipeline = PipelineSpec(extrapolation_window=4).build(
            tracking_backend_for("mdnet")
        )
        executor = ShardedExecutor(pipeline)
        try:
            sequences = tiny_tracking_dataset.sequences[:2]
            for index, sequence in enumerate(sequences):
                _open_on(executor, f"s{index}", sequence)
            shard = executor.shard_of("s0")
            backends = [
                shard.stream(f"s{index}").session.backend
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
    """Sharded output is bit-identical to serial under either search."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        exhaustive_search=st.booleans(),
        forced=st.sets(st.integers(min_value=1, max_value=23), max_size=4),
    )
    def test_sharded_matches_serial(
        self, small_sequence, fast_motion_sequence, exhaustive_search, forced
    ):
        spec = PipelineSpec(extrapolation_window=4, exhaustive_search=exhaustive_search)
        sequences = [small_sequence, fast_motion_sequence]

        serial = []
        for sequence in sequences:
            session = open_on(spec.build(tracking_backend_for("mdnet")), sequence)
            for index, frame in sequence.iter_frames():
                session.submit(
                    frame,
                    truth=sequence.truth_detections(index),
                    force_inference=index in forced,
                )
            serial.append(session.finish())

        executor = ShardedExecutor(spec.build(tracking_backend_for("mdnet")), workers=2)
        try:
            for position, sequence in enumerate(sequences):
                _open_on(executor, f"s{position}", sequence)
            for index in range(max(len(s) for s in sequences)):
                for position, sequence in enumerate(sequences):
                    if index < len(sequence):
                        _submit(
                            executor,
                            f"s{position}",
                            sequence,
                            index,
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
        _open_on(executor, "good", sequence)
        return executor

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_failure_scopes_to_stream(self, small_sequence, workers):
        executor = self._open_pair(workers, small_sequence)
        try:
            # First frame of a live tracking stream with no truth: its
            # session raises inside the shard.
            executor.submit("bad", _frame(8, shape=small_sequence.frame(0).shape))
            for index in range(len(small_sequence)):
                _submit(executor, "good", small_sequence, index)
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
        expected = spec.build(tracking_backend_for("mdnet")).run(small_sequence)

        executor = self._open_pair(2, small_sequence)
        try:
            executor.submit("bad", _frame(8, shape=small_sequence.frame(0).shape))
            for index in range(len(small_sequence)):
                _submit(executor, "good", small_sequence, index)
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
            for index in range(len(small_sequence)):
                _submit(executor, "good", small_sequence, index)
            executor.drain()
            assert "bad" in executor.stream_failures
            assert "died unexpectedly" in executor.stream_failures["bad"]
            result, _stats = executor.finish_stream("good")
            assert len(result.frames) == len(small_sequence)
        finally:
            executor.close()

    def test_failed_stream_and_killed_worker_hand_their_slots_back(
        self, small_sequence
    ):
        """The producer frees every slot of a stream whose session failed
        and of a worker that died with frames in flight."""
        executor = self._open_pair(2, small_sequence)
        shape = small_sequence.frame(0).shape
        try:
            for seed in range(4):
                executor.submit("bad", _frame(seed, shape=shape))
            executor.drain()
            assert set(executor.stream_failures) == {"bad"}
            assert executor.transport.slots_in_flight == 0
            # A stopped worker reads nothing, so its frames stay in flight.
            worker = executor.shard_of("good").process
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                for index in range(4):
                    _submit(executor, "good", small_sequence, index)
                in_flight = executor.transport.slots_in_flight
            finally:
                worker.kill()
                worker.join(timeout=10.0)
            assert in_flight == 4
            executor.drain()
            assert "died unexpectedly" in executor.stream_failures["good"]
            assert executor.transport.slots_in_flight == 0
        finally:
            executor.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unisolated_failure_raises_stream_failed_error(self, workers):
        """Without isolation a failing session raises StreamFailedError
        naming the session error, at any worker count, and only once."""
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")), workers=workers
        )
        try:
            executor.open_stream("live", width=48, height=48, name="live")
            executor.submit("live", _frame(8, shape=(48, 48)))
            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.drain()
            assert executor.drain() == []
            assert "live" in executor.stream_failures
            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.finish_stream("live")
        finally:
            executor.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unisolated_failure_keeps_every_processed_record(
        self, small_sequence, workers
    ):
        """The healthy frames a shard processed around a failing session
        reach the registry before the failure raises."""
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")), workers=workers
        )
        shape = small_sequence.frame(0).shape
        try:
            # Round-robin placement puts 'bad' and 'good' on one shard.
            for key in ("bad", "idle"):
                executor.open_stream(
                    key,
                    name=key,
                    width=small_sequence.width,
                    height=small_sequence.height,
                )
            _open_on(executor, "good", small_sequence)
            assert executor.shard_of("good") is executor.shard_of("bad")
            executor.submit("bad", _frame(8, shape=shape))
            for index in range(6):
                _submit(executor, "good", small_sequence, index)
            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.drain()
            assert executor.stats_for("good").frames_processed == 6
            result, stats = executor.finish_stream("good")
            assert len(result.frames) == stats.frames_processed == 6
        finally:
            executor.close()

    def test_failing_round_folds_its_batch_mates(self, small_sequence):
        """A healthy frame in the failing stream's I-batch is not lost."""
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(spec.build(tracking_backend_for("mdnet")))
        try:
            executor.open_stream(
                "bad",
                name="bad",
                width=small_sequence.width,
                height=small_sequence.height,
            )
            _open_on(executor, "good", small_sequence)
            executor.submit("bad", _frame(8, shape=small_sequence.frame(0).shape))
            for index in range(6):
                _submit(executor, "good", small_sequence, index)
            # One round: both frame-0 I-heads board one batch.
            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.pump()
            session = executor.shard_of("good").stream("good").session
            assert session.frames_submitted == 1
            assert executor.stats_for("good").frames_processed == 1
            assert executor.pending_for("good") == 5
            # The folded record is handed out by the next call.
            first = executor.pump()[0]
            assert (first.key, first.frame_index) == ("good", 0)
        finally:
            executor.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_finished_failed_stream_frees_its_key(self, small_sequence, workers):
        """Finishing a failed stream closes it on the executor and on its
        shard: its stats and failure are gone, and the key opens again (on
        the same shard) on a fresh session."""
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")),
            workers=workers,
            isolate_failures=True,
        )
        try:
            _open_on(executor, "s", small_sequence)
            first_shard = executor.shard_of("s")
            executor.submit("s", _frame(8, shape=small_sequence.frame(0).shape))
            executor.drain()
            assert set(executor.stream_failures) == {"s"}
            with pytest.raises(StreamFailedError, match="no annotated objects"):
                executor.finish_stream("s")
            assert executor.stream_failures == {}
            for lookup in (executor.stats_for, executor.shard_of):
                with pytest.raises(KeyError, match="unknown stream"):
                    lookup("s")

            _open_on(executor, "s", small_sequence)
            assert executor.shard_of("s") is first_shard
            for index in range(len(small_sequence)):
                _submit(executor, "s", small_sequence, index)
            executor.drain()
            result, stats = executor.finish_stream("s")
            expected = spec.build(tracking_backend_for("mdnet")).run(small_sequence)
            assert_results_identical(expected, result)
            assert stats.frames_processed == len(small_sequence)
        finally:
            executor.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_open_raises_and_the_shard_keeps_serving(
        self, small_sequence, workers
    ):
        spec = PipelineSpec(extrapolation_window=4)
        executor = ShardedExecutor(
            spec.build(tracking_backend_for("mdnet")), workers=workers
        )
        try:
            with pytest.raises((ValueError, ShardError), match="width and height"):
                executor.open_stream("broken", name="broken", width=None, height=None)
            _open_on(executor, "good", small_sequence)
            for index in range(len(small_sequence)):
                _submit(executor, "good", small_sequence, index)
            executor.drain()
            result, _stats = executor.finish_stream("good")
            assert len(result.frames) == len(small_sequence)
        finally:
            executor.close()


class TestPlacement:
    def test_a_new_stream_goes_to_the_shard_with_fewest_open_streams(self):
        """Ties go to the lowest index, so streams that all open before any
        closes land round-robin; a stream opened after a close fills the
        shard it left."""
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        executor = ShardedExecutor(pipeline, workers=2)
        try:
            for key in ("a", "b"):
                executor.open_stream(key, name=key, width=32, height=24)
            assert executor.shard_of("a").name == "shard0"
            assert executor.shard_of("b").name == "shard1"
            executor.finish_stream("a")
            executor.open_stream("c", name="c", width=32, height=24)
            assert executor.shard_of("c").name == "shard0"
            executor.open_stream("d", name="d", width=32, height=24)
            assert executor.shard_of("d").name == "shard0"
        finally:
            executor.close()

    def test_an_open_that_finds_its_worker_dead_moves_to_a_live_shard(self):
        """With isolation, a worker that died before anything noticed is
        marked lost by the open placed on it, and the stream opens on the
        next live shard.  A session's own refusal still raises, and with
        every worker dead one attempt raises."""
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        executor = ShardedExecutor(pipeline, workers=2, isolate_failures=True)
        first, second = executor._shards
        try:
            with pytest.raises(ShardError, match="width and height"):
                executor.open_stream("broken", name="broken", width=None, height=None)
            assert first.failure is None
            first.process.kill()
            first.process.join(timeout=10.0)
            executor.open_stream("a", name="a", width=32, height=24)
            assert executor.shard_of("a") is second
            assert "died unexpectedly" in first.failure
            second.process.kill()
            second.process.join(timeout=10.0)
            with pytest.raises(ShardError, match="died unexpectedly"):
                executor.open_stream("b", name="b", width=32, height=24)
            assert "died unexpectedly" in executor.stream_failures["a"]
            with pytest.raises(ShardError, match="died unexpectedly"):
                executor.open_stream("b", name="b", width=32, height=24)
        finally:
            executor.close()

    def test_without_isolation_an_open_on_a_dead_worker_raises(self):
        """Without isolation the open placed on a dead worker raises and
        does not move on: the stream is opened nowhere, and the live
        worker stays empty."""
        pipeline = PipelineSpec().build(tracking_backend_for("mdnet"))
        executor = ShardedExecutor(pipeline, workers=2)
        first, second = executor._shards
        try:
            first.process.kill()
            first.process.join(timeout=10.0)
            with pytest.raises(ShardError, match="died unexpectedly"):
                executor.open_stream("a", name="a", width=32, height=24)
            with pytest.raises(KeyError):
                executor.shard_of("a")
            assert second.failure is None
            executor.open_stream("b", name="b", width=32, height=24)
            assert executor.shard_of("b") is second
        finally:
            executor.close()


class TestCtrlC:
    def test_workers_ignore_sigint_and_the_drain_loses_no_frame(
        self, small_sequence, fast_motion_sequence
    ):
        """Ctrl-C reaches every process of the group.  The main process
        drains and stops its workers, so a worker must not die of it."""
        spec = PipelineSpec(extrapolation_window=4)
        sequences = [small_sequence, fast_motion_sequence]
        expected = [spec.build(tracking_backend_for("mdnet")).run(s) for s in sequences]
        executor = ShardedExecutor(spec.build(tracking_backend_for("mdnet")), workers=2)
        try:
            keys = [f"s{position}" for position in range(len(sequences))]
            for key, sequence in zip(keys, sequences):
                _open_on(executor, key, sequence)
            assert executor.shard_of("s0") is not executor.shard_of("s1")
            interrupt_at = min(len(s) for s in sequences) // 2
            for index in range(max(len(s) for s in sequences)):
                if index == interrupt_at:
                    for key in keys:
                        os.kill(executor.shard_of(key).process.pid, signal.SIGINT)
                for key, sequence in zip(keys, sequences):
                    if index < len(sequence):
                        _submit(executor, key, sequence, index)
            executor.drain()
            for key, want in zip(keys, expected):
                result, _stats = executor.finish_stream(key)
                assert_results_identical(want, result)
        finally:
            executor.close()
