"""Tests for the multi-stream scheduler (StreamMultiplexer)."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.backends import tracking_backend_for
from repro.core.executor import FrameRecord
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.core.types import FrameKind
from repro.video.synthetic import SequenceConfig, SequenceGenerator

from test_session import assert_results_identical


@pytest.fixture
def pipeline():
    return PipelineSpec(extrapolation_window=4).build(tracking_backend_for("mdnet"))


def add_sequence(mux, sequence, name=None):
    """Open a stream on ``sequence``'s frame size, named after it by default."""
    name = name or sequence.name
    mux.add_stream(name, width=sequence.width, height=sequence.height)
    return name


def submit_frame(mux, stream_id, sequence, index):
    """Submit frame ``index`` of ``sequence`` with its ground truth."""
    mux.submit(stream_id, sequence.frame(index), truth=sequence.truth_detections(index))


def feed(mux, stream_id, sequence):
    """Submit every frame of ``sequence`` with its ground truth."""
    for index in range(sequence.num_frames):
        submit_frame(mux, stream_id, sequence, index)


class TestSchedulingEquivalence:
    def test_interleaving_never_changes_per_stream_results(
        self, pipeline, tiny_tracking_dataset
    ):
        """Scheduling order affects latency, never output."""
        sequences = tiny_tracking_dataset.sequences
        mux = StreamMultiplexer(pipeline)
        results, _ = mux.run_streams(sequences)
        assert set(results) == {sequence.name for sequence in sequences}
        for sequence in sequences:
            isolated = PipelineSpec(extrapolation_window=4).build(
                tracking_backend_for("mdnet")
            ).run(sequence)
            assert_results_identical(isolated, results[sequence.name])

    def test_adaptive_streams_stay_isolated(self, tiny_tracking_dataset):
        """One stream's disagreement feedback must not move another's window."""
        spec = PipelineSpec(extrapolation_window="adaptive")
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline)
        results, _ = mux.run_streams(tiny_tracking_dataset.sequences)
        for sequence in tiny_tracking_dataset.sequences:
            isolated = spec.build(tracking_backend_for("mdnet")).run(sequence)
            assert_results_identical(isolated, results[sequence.name])

    def test_incremental_submission(self, pipeline, tiny_tracking_dataset):
        """Frames can arrive round-robin (as live cameras would deliver them)."""
        sequences = tiny_tracking_dataset.sequences[:2]
        mux = StreamMultiplexer(pipeline)
        ids = [add_sequence(mux, sequence) for sequence in sequences]
        num_frames = max(sequence.num_frames for sequence in sequences)
        for index in range(num_frames):
            for stream_id, sequence in zip(ids, sequences):
                if index < sequence.num_frames:
                    submit_frame(mux, stream_id, sequence, index)
            mux.pump()
        results = mux.finish()
        for stream_id, sequence in zip(ids, sequences):
            isolated = PipelineSpec(extrapolation_window=4).build(
                tracking_backend_for("mdnet")
            ).run(sequence)
            assert_results_identical(isolated, results[stream_id])


class TestScheduler:
    def test_iframes_are_batched(self, pipeline, tiny_tracking_dataset):
        mux = StreamMultiplexer(pipeline, max_inference_batch=4)
        _, report = mux.run_streams(tiny_tracking_dataset.sequences)
        assert report.inference_batches > 0
        # All four streams start in phase (frame 0 is always an I-frame), so
        # the scheduler gets at least one full-width batch.
        assert report.max_batch_size == min(4, len(tiny_tracking_dataset))
        assert report.batched_frames == report.inference_frames

    def test_batch_cap_respected(self, pipeline, tiny_tracking_dataset):
        mux = StreamMultiplexer(pipeline, max_inference_batch=2)
        _, report = mux.run_streams(tiny_tracking_dataset.sequences)
        assert report.max_batch_size <= 2

    def test_e_burst_bounds_per_round_work(self, tiny_tracking_dataset):
        """With burst=1, one pump round cannot drain a deep E-queue."""
        spec = PipelineSpec(extrapolation_window=8)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline, e_frame_burst=1, max_inference_batch=1)
        sequence = tiny_tracking_dataset.sequences[0]
        stream_id = add_sequence(mux, sequence)
        feed(mux, stream_id, sequence)
        processed = mux.pump()
        # One I-frame (frame 0) or one E-frame per round, never more.
        assert processed == 1
        assert mux.pending_frames == sequence.num_frames - 1

    def test_fairness_across_streams(self, pipeline, tiny_tracking_dataset):
        """Every stream makes progress long before any queue drains fully."""
        sequences = tiny_tracking_dataset.sequences
        mux = StreamMultiplexer(pipeline, e_frame_burst=2)
        ids = []
        for sequence in sequences:
            stream_id = add_sequence(mux, sequence)
            feed(mux, stream_id, sequence)
            ids.append(stream_id)
        mux.pump()
        mux.pump()
        progressed = [mux.stats_for(stream_id).frames_processed for stream_id in ids]
        assert all(count > 0 for count in progressed)
        mux.finish()

    def test_truncated_batch_boards_every_stream_in_turn(self, tiny_tracking_dataset):
        """When more I-heads are ready than max_inference_batch, the
        rotating lead seats a head behind deeper queues within
        streams - max_inference_batch + 1 rounds."""
        sequences = tiny_tracking_dataset.sequences
        assert len(sequences) >= 3
        # Every frame is an I-frame: deep busy queues always contend.
        spec = PipelineSpec(extrapolation_window=4, expose_motion_vectors=False)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), max_inference_batch=2
        )
        busy_ids = [
            add_sequence(mux, sequences[i % len(sequences)], name=f"busy{i}")
            for i in range(1, 4)
        ]
        # Opened last, so the first round seats it last.
        starved = add_sequence(mux, sequences[0], name="starved")
        submit_frame(mux, starved, sequences[0], 0)
        rounds_waited = None
        for round_index in range(12):
            for i, stream_id in enumerate(busy_ids):
                sequence = sequences[(i + 1) % len(sequences)]
                index = round_index % sequence.num_frames
                submit_frame(mux, stream_id, sequence, index)
                submit_frame(mux, stream_id, sequence, index)
            mux.pump()
            if rounds_waited is None and not mux.stats_for(starved).pending:
                rounds_waited = round_index + 1
        assert rounds_waited == 3

    def test_validation(self, pipeline):
        with pytest.raises(ValueError):
            StreamMultiplexer(pipeline, e_frame_burst=0)
        with pytest.raises(ValueError):
            StreamMultiplexer(pipeline, max_inference_batch=0)
        mux = StreamMultiplexer(pipeline)
        with pytest.raises(KeyError, match="unknown stream"):
            mux.submit("nope", None)


class TestStats:
    def test_per_stream_stats_account_every_frame(self, pipeline, tiny_tracking_dataset):
        mux = StreamMultiplexer(pipeline)
        _, report = mux.run_streams(tiny_tracking_dataset.sequences)
        for stats in report.streams:
            assert stats.frames_submitted == stats.frames_processed
            assert stats.pending == 0
            assert (
                stats.inference_frames + stats.extrapolation_frames
                == stats.frames_processed
            )
            assert stats.max_queue_depth > 0
            assert stats.busy_s > 0.0
            assert stats.mean_service_latency_s > 0.0
            # EW-4 processes 1 I-frame per 4 frames.
            assert stats.inference_rate == pytest.approx(0.25, abs=0.1)

    def test_closed_streams_keep_stats_not_results(self, pipeline):
        """After open -> submit -> close cycles under one name the
        multiplexer keeps each stream's report row, not its result:
        retained memory does not grow with the frames a stream ran."""
        sequence = SequenceGenerator(
            SequenceConfig(
                name="cam", frame_width=64, frame_height=48, num_frames=96, seed=3
            )
        ).generate()

        def retained(frames_per_stream: int) -> int:
            mux = StreamMultiplexer(pipeline)

            def cycle() -> None:
                stream_id = add_sequence(mux, sequence)
                for index in range(frames_per_stream):
                    submit_frame(mux, stream_id, sequence, index)
                mux.drain()
                assert len(mux.finish_stream(stream_id)) == frames_per_stream
                with pytest.raises(KeyError):
                    mux.stats_for(stream_id)

            cycle()  # first-call allocations
            tracemalloc.start()
            try:
                gc.collect()
                before, _ = tracemalloc.get_traced_memory()
                for _ in range(8):
                    cycle()
                gc.collect()  # count live memory, not uncollected cycles
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert mux.finish() == {}
            assert [stats.name for stats in mux.report().streams] == ["cam"] * 9
            return after - before

        # 8 streams x 88 more frames: kept results (about 400 B a frame)
        # would add some 280 kB.
        few = retained(8)
        assert retained(96) - few < 32_768

    def test_pump_driven_report_has_wall_time(self, pipeline, tiny_tracking_dataset):
        """Always-on loops drive pump() directly and never drain()."""
        mux = StreamMultiplexer(pipeline)
        sequence = tiny_tracking_dataset.sequences[0]
        stream_id = add_sequence(mux, sequence)
        for index in range(8):
            submit_frame(mux, stream_id, sequence, index)
            mux.pump()
        report = mux.report()
        assert report.frames_processed == 8
        assert report.wall_s > 0.0
        assert report.aggregate_fps > 0.0
        mux.finish()

    def test_aggregate_report(self, pipeline, tiny_tracking_dataset):
        mux = StreamMultiplexer(pipeline)
        _, report = mux.run_streams(tiny_tracking_dataset.sequences)
        total = sum(len(sequence) for sequence in tiny_tracking_dataset.sequences)
        assert report.frames_processed == total
        assert report.inference_frames + report.extrapolation_frames == total
        assert report.wall_s > 0.0
        assert report.aggregate_fps > 0.0
        assert report.mean_batch_size >= 1.0

    def test_a_repeated_sequence_reproduces_run(self, pipeline, tiny_tracking_dataset):
        """Two streams fed one sequence need two names.  The stream named
        after the sequence reproduces run(); the other is seeded with its own
        name; a name already open is refused."""
        sequence = tiny_tracking_dataset.sequences[0]
        mux = StreamMultiplexer(pipeline)
        stream_ids = [add_sequence(mux, sequence), add_sequence(mux, sequence, "replay")]
        with pytest.raises(ValueError, match="already exists"):
            add_sequence(mux, sequence)
        for index in range(sequence.num_frames):
            for stream_id in stream_ids:
                submit_frame(mux, stream_id, sequence, index)
        results = mux.finish()
        assert set(results) == {sequence.name, "replay"}
        assert results["replay"].sequence_name == "replay"
        expected = PipelineSpec(extrapolation_window=4).build(
            tracking_backend_for("mdnet")
        ).run(sequence)
        assert_results_identical(expected, results[sequence.name])


class TestEnergyPolicy:
    """Per-stream cost metering under the fair-share scheduler."""

    def _energy_mux(self, spec=None, **kwargs):
        from repro.nn.models import build_mdnet
        from repro.soc import VisionSoC

        spec = spec or PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        return StreamMultiplexer(
            pipeline, soc=VisionSoC(), network=build_mdnet(), **kwargs
        )

    def test_per_stream_energy_breakdowns(self, tiny_tracking_dataset):
        mux = self._energy_mux()
        results, report = mux.run_streams(tiny_tracking_dataset.sequences)
        assert set(report.stream_energy) == set(results)
        for name, breakdown in report.stream_energy.items():
            assert breakdown.num_frames == len(results[name])
            assert breakdown.total_energy_j > 0.0
            # EW-4 tracking: an I-frame every 4 frames.
            assert breakdown.inference_rate == pytest.approx(0.25, abs=0.1)
        # The aggregate is the exact shared-SoC figure: static power (NNX
        # idle, DRAM background, MC idle) settled once across all streams,
        # strictly below the per-stream-sum upper bound for several streams.
        upper_bound = sum(b.total_energy_j for b in report.stream_energy.values())
        assert report.aggregate_energy_upper_bound_j == pytest.approx(upper_bound)
        assert report.shared_energy is not None
        assert report.aggregate_energy_j == pytest.approx(
            report.shared_energy.total_energy_j
        )
        assert report.aggregate_energy_j < upper_bound
        assert report.aggregate_energy_per_frame_j > 0.0
        assert report.aggregate_power_w > 0.0
        assert report.queueing is not None and report.queueing.utilization > 0.0

    def test_single_stream_aggregate_equals_per_stream_sum(
        self, tiny_tracking_dataset
    ):
        """With one stream there is nothing to share: exact == upper bound."""
        mux = self._energy_mux()
        _, report = mux.run_streams(tiny_tracking_dataset.sequences[:1])
        assert report.shared_energy is not None
        assert report.aggregate_energy_j == pytest.approx(
            report.aggregate_energy_upper_bound_j
        )

    def test_batched_iframes_amortise_weight_traffic(self, tiny_tracking_dataset):
        """Multi-stream batches must price below one-stream-at-a-time runs."""
        sequences = tiny_tracking_dataset.sequences
        batched = self._energy_mux(max_inference_batch=len(sequences))
        _, batched_report = batched.run_streams(sequences)
        solo_energy = {}
        for sequence in sequences:
            mux = self._energy_mux(max_inference_batch=1)
            _, report = mux.run_streams([sequence])
            solo_energy.update(
                {name: b.total_traffic_bytes for name, b in report.stream_energy.items()}
            )
        for name, breakdown in batched_report.stream_energy.items():
            assert breakdown.total_traffic_bytes < solo_energy[name]

    def test_no_meter_without_energy_model(self, pipeline, tiny_tracking_dataset):
        mux = StreamMultiplexer(pipeline)
        _, report = mux.run_streams(tiny_tracking_dataset.sequences[:1])
        assert report.stream_energy == {}
        assert report.aggregate_energy_j == 0.0
        assert report.aggregate_power_w == 0.0

    def test_validation(self, pipeline):
        with pytest.raises(ValueError, match="soc and network"):
            from repro.soc import VisionSoC

            StreamMultiplexer(pipeline, soc=VisionSoC())

    def test_stalled_iframe_cannot_starve_behind_e_traffic(self, tiny_tracking_dataset):
        """A lone I-head is dispatched though its batch never fills, even
        while another stream keeps every pump round busy with E-frames."""
        sequences = tiny_tracking_dataset.sequences[:2]
        mux = self._energy_mux(max_inference_batch=8)
        starved = add_sequence(mux, sequences[0], name="starved")
        busy = add_sequence(mux, sequences[1], name="busy")
        # Warm both streams past frame 0 so the busy stream has E-heads.
        for index in range(2):
            submit_frame(mux, starved, sequences[0], index)
            submit_frame(mux, busy, sequences[1], index)
        mux.drain()
        # The starved stream now queues exactly one I-frame (EW-4 phase
        # puts frame 4 on an inference boundary takes submitting 2 more).
        for index in range(2, 5):
            submit_frame(mux, starved, sequences[0], index)
        mux.drain()
        assert mux.stats_for(starved).pending == 0
        # Lone I-head, batch never fills, busy stream keeps the pump going.
        submit_frame(mux, starved, sequences[0], 5)
        waited = 0
        for index in range(2, sequences[1].num_frames):
            submit_frame(mux, busy, sequences[1], index)
            mux.pump()
            if mux.stats_for(starved).pending:
                waited += 1
        assert mux.stats_for(starved).pending == 0
        # ...and it did not wait for the queues to empty: every round ends
        # with an I-phase, so it boarded the first one.
        assert waited == 0

    def test_meterless_multiplexer_drains_session_telemetry(
        self, pipeline, tiny_tracking_dataset
    ):
        """Without an energy model the telemetry buffer must still be freed."""
        sequence = tiny_tracking_dataset.sequences[0]
        mux = StreamMultiplexer(pipeline)
        stream_id = add_sequence(mux, sequence)
        feed(mux, stream_id, sequence)
        mux.drain()
        session = mux._executor.shard_of(stream_id).stream(stream_id).session
        assert session._telemetry == []

    def test_extrapolation_host_reaches_stream_meters(self, tiny_tracking_dataset):
        """extrapolation_on_cpu=True must price E-frames on the CPU cluster."""
        from repro.nn.models import build_mdnet
        from repro.soc import VisionSoC

        sequences = tiny_tracking_dataset.sequences[:2]
        spec = PipelineSpec(extrapolation_window=4)

        def total_cpu_energy(on_cpu):
            mux = StreamMultiplexer(
                spec.build(tracking_backend_for("mdnet")),
                soc=VisionSoC(),
                network=build_mdnet(),
                extrapolation_on_cpu=on_cpu,
            )
            _, report = mux.run_streams(sequences)
            return sum(b.cpu_energy_j for b in report.stream_energy.values())

        assert total_cpu_energy(False) == 0.0
        assert total_cpu_energy(True) > 0.0


class TestShardedWorkers:
    """workers=N shards streams over worker processes; outputs never change."""

    def test_sharded_mux_matches_in_process(self, tiny_tracking_dataset):
        sequences = tiny_tracking_dataset.sequences
        spec = PipelineSpec(extrapolation_window=4)
        serial, _ = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet"))
        ).run_streams(sequences)
        sharded, report = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), workers=2
        ).run_streams(sequences)
        assert report.workers == 2
        assert report.transport == "shm"
        assert report.frames_processed == sum(len(s) for s in sequences)
        for name in serial:
            assert_results_identical(serial[name], sharded[name])

    def test_sharded_energy_metering_stays_exact(self, tiny_tracking_dataset):
        from repro.nn.models import build_mdnet
        from repro.soc import VisionSoC

        spec = PipelineSpec(extrapolation_window=4)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")),
            soc=VisionSoC(),
            network=build_mdnet(),
            workers=2,
        )
        results, report = mux.run_streams(tiny_tracking_dataset.sequences)
        assert set(report.stream_energy) == set(results)
        assert report.shared_energy is not None
        assert 0.0 < report.aggregate_energy_j < report.aggregate_energy_upper_bound_j

    def test_batch_bookkeeping_keeps_one_entry_per_shard(self, tiny_tracking_dataset):
        """Counting I-frame batches keeps one id per shard, not one per batch."""
        sequences = tiny_tracking_dataset.sequences
        mux = StreamMultiplexer(
            PipelineSpec(extrapolation_window=1).build(tracking_backend_for("mdnet")),
            workers=2,
            max_inference_batch=2,
        )
        _, report = mux.run_streams(sequences)
        assert report.inference_batches >= sum(len(s) for s in sequences) // 2
        assert report.batched_frames == report.inference_frames
        assert len(mux._last_batch_ids) == 2

    def test_batch_bookkeeping_stays_bounded(self, pipeline):
        """10,000 I-frame batch records leave the multiplexer's bookkeeping
        the size it was: three counters, not one entry per batch."""
        mux = StreamMultiplexer(pipeline)
        stream = "cam"
        mux.add_stream(stream, width=32, height=32)
        records = [
            FrameRecord(
                shard="shard-0",
                key=stream,
                frame_index=index,
                kind=FrameKind.INFERENCE,
                batch_size=1 + index % 4,
                batch_id=index,
                busy_s=0.0,
                wait_s=0.0,
                telemetry=None,
            )
            for index in range(10_000)
        ]
        mux._absorb(records[:1])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            mux._absorb(records[1:])
            report = mux.report()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mux.close()
        assert (report.inference_batches, report.batched_frames) == (10_000, 25_000)
        assert report.max_batch_size == 4
        assert report.mean_batch_size == 2.5
        assert after - before < 4_096

    def test_single_worker_resolves_in_process(self, pipeline):
        mux = StreamMultiplexer(pipeline, workers=1)
        assert mux.workers == 1
        assert mux.transport_mode == "inproc"
        mux.close()
