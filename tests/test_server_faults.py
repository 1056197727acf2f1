"""Fault-injection tests for the TCP serving front end.

Every scenario here is an unhappy path: dropped frames, duplicated and
out-of-order arrivals, a client vanishing mid-stream, a consumer that
stops reading its acks, and a worker process dying under an active
connection.  The invariants: the server never deadlocks, frame
*processing* is never corrupted (the hypothesis property pins accepted
frames bit-identical to a serial session fed the surviving subsequence),
every fault lands in telemetry or a fault counter, and the server's event
loop never logs an exception nobody handled (checked on every test).
"""

from __future__ import annotations

import logging
import random
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import tracking_backend_for
from repro.core.executor import StreamFailedError, StreamStats
from repro.core.ingest import (
    MSG_BYE,
    MSG_BYE_OK,
    MSG_ERROR,
    MSG_FRAME,
    MSG_HEALTH,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_REJECT,
    MSG_RESULT,
    MSG_STATS,
    AdmissionError,
    IngestConfig,
    IngestCore,
    encode_json,
    encode_message,
)
from repro.core.server import ServeClient, ServerThread
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.nn.models import build_mdnet
from repro.soc.frame_cost import CapacityModel
from repro.video.synthetic import SequenceConfig, SequenceGenerator

from test_ingest import collect_records
from test_session import assert_results_identical


@pytest.fixture
def no_unhandled_exception(caplog):
    """Fail if the server's event loop logs an exception nobody handled."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    yield
    unhandled = [r for r in caplog.records if "Unhandled exception" in r.getMessage()]
    assert not unhandled, unhandled[0].getMessage()


pytestmark = pytest.mark.usefixtures("no_unhandled_exception")


def _sequence(
    frames: int = 20, seed: int = 7, name: str = "cam", width: int = 64, height: int = 48
):
    return SequenceGenerator(
        SequenceConfig(
            name=name, frame_width=width, frame_height=height,
            num_frames=frames, num_objects=1, seed=seed,
        )
    ).generate()


def _make_ingest(*, workers: int = 1, **config_kwargs) -> IngestCore:
    spec = PipelineSpec(extrapolation_window=4)
    pipeline = spec.build(tracking_backend_for("mdnet"))
    mux = StreamMultiplexer(pipeline, workers=workers, isolate_failures=True)
    config_kwargs.setdefault("admission", False)
    config_kwargs.setdefault("reorder_window", 4)
    capacity = None
    if config_kwargs["admission"]:
        capacity = CapacityModel(spec.vision_soc(), build_mdnet())
    return IngestCore(mux, capacity=capacity, config=IngestConfig(**config_kwargs))


def _stream_all(client: ServeClient, handle: int, seq_obj, seqs) -> None:
    for seq in seqs:
        client.send_frame(
            handle, seq, seq_obj.frame(seq), truth=seq_obj.truth_detections(seq)
        )


class TestServerFaults:
    def test_dropped_frames_seal_gaps(self):
        seq_obj = _sequence(20)
        dropped = {3, 9}
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(
                    client, 1, seq_obj, [s for s in range(20) if s not in dropped]
                )
                summary = client.bye(1)
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == 18
        assert summary["faults"]["gaps"] == len(dropped)
        assert summary["faults"]["overload_drops"] == 0
        report = server.shutdown()
        assert report.frames_processed == 18

    def test_duplicates_and_out_of_order_arrivals(self):
        seq_obj = _sequence(16)
        # 3 duplicated while buffered; 5 and 10 re-delivered after release;
        # (3,2), (7,6) and (12,11) swapped in flight.
        arrivals = [0, 1, 3, 3, 2, 4, 5, 5, 7, 6, 8, 9, 10, 10, 12, 11, 13, 14, 15]
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(client, 1, seq_obj, arrivals)
                summary = client.bye(1)
                # RESULT acks observed so far arrived in pipeline order.
                indices = [r["frame_index"] for r in client.results]
                assert indices == sorted(indices)
                # Every acked frame carries the source seq it came from.
                for record in client.results:
                    assert record["seq"] == record["frame_index"]
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == 16  # all 16 distinct seqs survive
        assert summary["faults"]["duplicates"] == 1  # dup of a buffered frame
        assert summary["faults"]["late_drops"] == 2  # re-delivery after release
        assert summary["faults"]["reordered"] > 0
        assert summary["faults"]["gaps"] == 0
        server.shutdown()

    def test_midstream_disconnect_settles_stream(self):
        seq_obj = _sequence(20)
        with ServerThread(_make_ingest()) as server:
            rude = ServeClient("127.0.0.1", server.port)
            rude.hello(
                handle=1, stream="rude", width=seq_obj.width, height=seq_obj.height
            )
            _stream_all(rude, 1, seq_obj, range(10))
            # Closing with acks left unread resets the connection, and a
            # reset discards whatever the server has not read yet; a STATS
            # round trip first proves all ten frames were accepted.
            rude.stats()
            rude.close()  # vanish mid-stream: no BYE

            with ServeClient("127.0.0.1", server.port) as polite:
                polite.hello(
                    handle=1, stream="polite",
                    width=seq_obj.width, height=seq_obj.height,
                )
                # The disconnect settles 'rude' like an implicit BYE; wait
                # until the server has reaped it.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stats = polite.stats()
                    if "rude" not in stats["streams"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("disconnected stream was never settled")
                assert stats["failures"] == {}
                _stream_all(polite, 1, seq_obj, range(20))
                summary = polite.bye(1)
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == 20
        report = server.shutdown()
        # The rude client's accepted frames were still processed in full.
        assert report.frames_processed == 30

    def test_slow_consumer_sheds_acks_not_frames(self):
        seq_obj = _sequence(60, seed=9)
        with ServerThread(_make_ingest(), outbox_depth=2) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # Never poll while streaming: the tiny outbox overflows as
                # the pump bursts records faster than the writer drains.
                _stream_all(client, 1, seq_obj, range(60))
                deadline = time.monotonic() + 30.0
                while (
                    server.server.total_result_drops == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                summary = client.bye(1)
        # Processing was never backpressured by the unread acks...
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == 60
        # ...the shed acks were counted, not silently lost.
        assert server.server.total_result_drops > 0
        report = server.shutdown()
        assert report.frames_processed == 60

    def test_worker_death_during_active_connection(self):
        seq_obj = _sequence(20)
        ingest = _make_ingest(workers=2)
        executor = ingest.multiplexer._executor
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="doomed",
                    width=seq_obj.width, height=seq_obj.height,
                )
                client.hello(
                    handle=2, stream="survivor",
                    width=seq_obj.width, height=seq_obj.height,
                )
                doomed_shard = executor.shard_of("doomed")
                assert doomed_shard is not executor.shard_of("survivor")
                _stream_all(client, 1, seq_obj, range(4))
                _stream_all(client, 2, seq_obj, range(4))

                doomed_shard.process.kill()
                doomed_shard.process.join(timeout=10.0)

                # Keep feeding the dead stream until the failure surfaces.
                deadline = time.monotonic() + 30.0
                seq = 4
                while not client.errors and time.monotonic() < deadline:
                    client.send_frame(
                        1, seq, seq_obj.frame(seq % 20),
                        truth=seq_obj.truth_detections(seq % 20),
                    )
                    seq += 1
                    client.poll(timeout=0.05)
                assert client.errors, "worker death never reported to the client"
                assert "died unexpectedly" in client.errors[0]["reason"]
                # The ERROR settled the failure: the server holds no failed
                # stream, and the name opens again on the live shard.
                assert client.stats()["failures"] == {}
                client.hello(
                    handle=3, stream="doomed",
                    width=seq_obj.width, height=seq_obj.height,
                )
                assert executor.shard_of("doomed") is executor.shard_of("survivor")

                # The sibling stream on the healthy shard still completes.
                _stream_all(client, 2, seq_obj, range(4, 20))
                _stream_all(client, 3, seq_obj, range(8))
                summary = client.bye(2)
                reborn = client.bye(3)
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == 20
        assert reborn["status"] == "ok"
        assert reborn["frames_processed"] == 8
        report = server.shutdown()
        # graceful drain despite the dead worker
        assert [s.name for s in report.streams] == ["doomed", "survivor", "doomed"]

    def test_hello_placed_on_a_dead_worker_opens_on_a_live_one(self):
        """A worker that died holding no stream, before any pump round
        noticed, is found by the HELLO placed on it: the worker is marked
        lost and the HELLO is admitted on the live worker."""
        ingest = _make_ingest(workers=2)
        executor = ingest.multiplexer._executor
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                for handle, stream in ((1, "a"), (2, "b")):
                    client.hello(handle=handle, stream=stream, width=64, height=48)
                idle = executor.shard_of("a")
                client.bye(1)
                # Pause the pump rounds, which would notice the death first;
                # the STATS round trip outlasts any round already running.
                ingest.pump = lambda: 0
                client.stats()
                idle.process.kill()
                idle.process.join(timeout=10.0)
                client.hello(handle=3, stream="c", width=64, height=48)
                assert executor.shard_of("c") is executor.shard_of("b")
                assert "died unexpectedly" in idle.failure
        server.shutdown()

    def test_hello_with_every_worker_dead_is_rejected(self):
        """With no live worker left, a HELLO gets REJECT with the reason,
        and the connection stays open for the next request."""
        ingest = _make_ingest(workers=2)
        executor = ingest.multiplexer._executor
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                # Pause the pump rounds, as above, so the HELLO finds both
                # deaths itself.
                ingest.pump = lambda: 0
                client.stats()
                for shard in executor._shards:
                    shard.process.kill()
                    shard.process.join(timeout=10.0)
                for handle in (1, 2):
                    with pytest.raises(AdmissionError, match="died unexpectedly"):
                        client.hello(handle=handle, stream="cam", width=64, height=48)
                assert all("died unexpectedly" in s.failure for s in executor._shards)
                assert client.stats()["streams"] == {}
        server.shutdown()

    def test_bye_on_failed_stream_raises_promptly(self):
        # A tracking stream poisoned mid-flight (no truth on the first
        # I-frame) is torn down server-side; a later BYE on that handle must
        # surface the MSG_ERROR as StreamFailedError, not block for a
        # BYE_OK that will never come.
        seq_obj = _sequence(8)
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # Keep pushing truthless frames until the poisoned session's
                # failure surfaces as MSG_ERROR (the server tears the stream
                # down and pops the handle).
                deadline = time.monotonic() + 30.0
                seq = 0
                while not client.errors and time.monotonic() < deadline:
                    client.send_frame(1, seq % 8, seq_obj.frame(seq % 8))
                    seq += 1
                    client.poll(timeout=0.05)
                assert client.errors, "stream failure never reported"
                started = time.monotonic()
                with pytest.raises(StreamFailedError, match="no stream"):
                    client.bye(1, timeout=30.0)
                assert time.monotonic() - started < 15.0
                # An outright unknown handle fails fast the same way.
                with pytest.raises(StreamFailedError, match="no stream"):
                    client.bye(99, timeout=30.0)
        server.shutdown()

    def test_a_failure_the_pump_finds_is_answered_with_error(self):
        """The pump can find a stream failed while a frame still waits in
        its ready queue.  The client's next frame gets ERROR with the
        reason, the connection lives on, and the name is free again."""
        seq_obj = _sequence(8)
        with ServerThread(_make_ingest(feed_depth=1)) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # No truth on frame 0 fails the tracking session.  Frame 1
                # goes first, so the reorder window releases both at once
                # and frame 1 waits in the ready queue behind frame 0.
                client.send_frame(1, 1, seq_obj.frame(1))
                client.send_frame(1, 0, seq_obj.frame(0))
                deadline = time.monotonic() + 30.0
                while "cam" not in client.stats()["failures"]:
                    assert time.monotonic() < deadline, "failure never found"
                    time.sleep(0.02)
                client.send_frame(1, 2, seq_obj.frame(2))
                _, error = client.wait_for(MSG_ERROR, timeout=10.0)
                assert client.stats()["failures"] == {}
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(client, 1, seq_obj, range(8))
                summary = client.bye(1)
        assert (error["handle"], error["stream"]) == (1, "cam")
        assert "no annotated objects" in error["reason"]
        assert summary["status"] == "ok" and summary["frames_processed"] == 8
        report = server.shutdown()
        assert [s.name for s in report.streams] == ["cam", "cam"]


class TestNameReuse:
    def test_a_name_is_admitted_again_after_bye(self):
        """A camera that says BYE and reconnects under its own name is
        admitted; each BYE_OK and report row counts only its own stream,
        and the energy aggregates cover both."""
        seq_obj = _sequence(12)
        spec = PipelineSpec(extrapolation_window=4)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")),
            soc=spec.vision_soc(),
            network=build_mdnet(),
            isolate_failures=True,
        )
        ingest = IngestCore(mux, config=IngestConfig(admission=False, reorder_window=4))
        summaries = []
        with ServerThread(ingest) as server:
            for frames in (8, 12):
                with ServeClient("127.0.0.1", server.port) as client:
                    client.hello(
                        handle=1, stream="cam",
                        width=seq_obj.width, height=seq_obj.height,
                    )
                    _stream_all(client, 1, seq_obj, range(frames))
                    summaries.append(client.bye(1))
        report = server.shutdown()
        assert [s["status"] for s in summaries] == ["ok", "ok"]
        assert [s["frames_submitted"] for s in summaries] == [8, 12]
        assert [s["frames_processed"] for s in summaries] == [8, 12]
        assert [s.name for s in report.streams] == ["cam", "cam"]
        assert [s.frames_processed for s in report.streams] == [8, 12]
        assert report.frames_processed == 20
        # The aggregates read the pool, which prices all 20 frames; the
        # name-keyed breakdown maps to the later stream.
        assert report.shared_energy.num_frames == 20
        assert report.aggregate_energy_per_frame_j == pytest.approx(
            report.shared_energy.total_energy_j / 20, rel=1e-12
        )
        assert report.stream_energy["cam"].num_frames == 12
        later = report.stream_energy["cam"].total_energy_j
        assert report.aggregate_energy_upper_bound_j > later
        assert report.aggregate_energy_j < report.aggregate_energy_upper_bound_j


class TestAcceptedSubsequenceProperty:
    """Accepted frames are bit-identical to a serial session fed the same
    surviving subsequence, with an I-frame forced at every gap."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_frames=st.integers(min_value=5, max_value=14),
        drops=st.sets(st.integers(min_value=0, max_value=13), max_size=3),
        chaos_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_accepted_frames_match_serial(self, num_frames, drops, chaos_seed):
        rng = random.Random(chaos_seed)
        survivors = [s for s in range(num_frames) if s not in drops]
        # Jittered arrival order (bounded displacement) plus duplicates.
        arrivals = sorted(survivors, key=lambda s: s + rng.uniform(-1.8, 1.8))
        for seq in survivors:
            if rng.random() < 0.25:
                position = rng.randint(arrivals.index(seq), len(arrivals))
                arrivals.insert(position, seq)

        seq_obj = _sequence(frames=num_frames, seed=13)
        spec = PipelineSpec(extrapolation_window=4)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), isolate_failures=True
        )
        core = IngestCore(
            mux,
            config=IngestConfig(
                admission=False, reorder_window=3,
                queue_capacity=256, feed_depth=256,
            ),
        )
        labelled = collect_records(core)
        core.open_stream("cam", width=seq_obj.width, height=seq_obj.height)
        for seq in arrivals:
            core.push_frame(
                "cam", seq, seq_obj.frame(seq), truth=seq_obj.truth_detections(seq)
            )
            core.pump()
        streamed = core.close_stream("cam")
        core.finish()
        assert [r.frame_index for r, _ in labelled] == list(range(len(labelled)))
        accepted = [seq for _, seq in labelled]

        # No overload configured: exactly the reorder survivors got in.
        assert accepted == survivors

        # Serial reference: same stream name (backends seed off it), same
        # subsequence, I-frame forced wherever the source seq is not
        # contiguous (the sealed gaps).
        session = spec.build(tracking_backend_for("mdnet")).open_session(
            seq_obj.width, seq_obj.height, name="cam"
        )
        for position, seq in enumerate(accepted):
            forced = (
                seq != (accepted[position - 1] + 1 if position else 0)
            )
            session.submit(
                seq_obj.frame(seq),
                truth=seq_obj.truth_detections(seq),
                force_inference=forced,
            )
        serial = session.finish()
        assert_results_identical(serial, streamed)


class TestByeSettlesBeforeAnswering:
    def test_bye_right_after_last_frame_gets_every_ack_first(self):
        seq_obj = _sequence(40, width=96, height=54)
        sent = [seq for seq in range(40) if seq != 20]
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(client, 1, seq_obj, sent)
                summary = client.bye(1)
                # bye() returns at BYE_OK: every ack had to arrive first.
                acked = sorted(record["seq"] for record in client.results)
        assert summary["status"] == "ok"
        assert summary["frames_processed"] == len(sent)
        assert acked == sent
        assert summary["faults"]["acks_shed"] == 0
        server.shutdown()

    def test_label_map_stays_bounded(self):
        seq_obj = _sequence(20, seed=5)
        core = _make_ingest(feed_depth=4)
        core.open_stream("cam", width=seq_obj.width, height=seq_obj.height)
        stream = core._streams["cam"]
        largest = 0
        for seq in range(1000):
            core.push_frame(
                "cam", seq, seq_obj.frame(seq % 20),
                truth=seq_obj.truth_detections(seq % 20),
            )
            # Labels cover the frames in flight; the ready queue is unlabelled.
            assert len(stream.labels) <= 4
            largest = max(largest, len(stream.labels))
            if seq % 3 == 2:
                core.pump()
        core.close_stream("cam")
        assert stream.labels == {}
        assert largest == 4
        core.finish()


class TestControlRepliesNeverShed:
    def test_tiny_outbox_sheds_only_acks(self):
        seq_obj = _sequence(60, seed=9)
        with ServerThread(_make_ingest(), outbox_depth=1) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # Stop reading: frames, control requests and BYE all go out
                # before a single reply is read.
                _stream_all(client, 1, seq_obj, range(60))
                client.send_raw(encode_json(MSG_STATS, {}))
                client.send_raw(encode_json(MSG_HEALTH, {}))
                client.send_raw(encode_json(MSG_BYE, {"handle": 1}))
                replies = []
                while MSG_BYE_OK not in replies:
                    msg_type, _ = client.wait_for(
                        MSG_STATS, MSG_HEALTH, MSG_BYE_OK, timeout=30.0
                    )
                    replies.append(msg_type)
        assert sorted(replies) == sorted([MSG_STATS, MSG_HEALTH, MSG_BYE_OK])
        drops = server.server.total_result_drops
        assert drops > 0
        report = server.shutdown()
        stats = report.streams[0]
        assert stats.frames_processed == 60
        assert stats.acks_shed == drops
        assert len(client.results) + drops == 60


class TestWireValidation:
    @pytest.mark.parametrize("width, height", [(0, 0), (-4, 10), (70000, 10)])
    def test_open_stream_refuses_sizes_a_frame_cannot_carry(self, width, height):
        core = _make_ingest()
        with pytest.raises(ValueError, match="outside 1..65535"):
            core.open_stream("cam", width=width, height=height)
        assert core.stats()["streams"] == {}
        core.finish()

    def test_hello_with_bad_size_is_rejected(self):
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                with pytest.raises(AdmissionError, match="bad HELLO"):
                    client.hello(handle=1, width=70000, height=10)
        server.shutdown()

    def test_hello_reusing_a_live_handle_is_rejected(self):
        seq_obj = _sequence(8)
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="first", width=seq_obj.width, height=seq_obj.height
                )
                with pytest.raises(AdmissionError, match="already open"):
                    client.hello(
                        handle=1, stream="second",
                        width=seq_obj.width, height=seq_obj.height,
                    )
                _stream_all(client, 1, seq_obj, range(8))
                summary = client.bye(1)
        assert summary["stream"] == "first"
        assert summary["frames_processed"] == 8
        report = server.shutdown()
        assert [stats.name for stats in report.streams] == ["first"]

    def test_mismatched_frame_is_refused_and_sealed_as_a_gap(self):
        seq_obj = _sequence(12, width=96, height=54)
        wrong = _sequence(1, width=128, height=64)
        spec = PipelineSpec(extrapolation_window=2)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), isolate_failures=True
        )
        ingest = IngestCore(mux, config=IngestConfig(admission=False, reorder_window=4))
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                for seq in range(12):
                    frame = wrong.frame(0) if seq == 4 else seq_obj.frame(seq)
                    client.send_frame(
                        1, seq, frame, truth=seq_obj.truth_detections(seq)
                    )
                summary = client.bye(1)
                acks = {r["seq"]: r for r in client.results}
                errors = list(client.errors)
        assert summary["status"] == "ok"
        assert len(errors) == 1
        assert errors[0]["handle"] == 1 and errors[0]["seq"] == 4
        assert "(64, 128)" in errors[0]["reason"]
        assert summary["faults"]["frame_errors"] == 1
        assert summary["faults"]["gaps"] == 1
        assert summary["frames_processed"] == 11
        assert sorted(acks) == [s for s in range(12) if s != 4]
        # EW-2 keeps its I/E phase: the frame after the refused one is the
        # tagged gap seal, and no unscheduled I-frame follows it.
        kinds = [acks[s]["kind"][0].upper() for s in sorted(acks)]
        assert "".join(kinds) == "IEIE" + "IEIEIEI"
        assert "dropped-frame-gap" in acks[5]["degradation"]
        server.shutdown()


def _frame_with_truth_blob(handle: int, seq: int, frame, blob: bytes) -> bytes:
    """A well-framed FRAME message carrying ``blob`` as its truth bytes."""
    height, width = frame.shape
    head = struct.pack(">IIHHI", handle, seq, height, width, len(blob))
    return encode_message(MSG_FRAME, head + blob + frame.tobytes())


def _hello_reply(config: dict, *, admission: bool = False) -> dict:
    """The REJECT a HELLO of ``config`` gets beside a running stream, which
    must go on unharmed."""
    seq_obj = _sequence(8, width=96, height=54)
    with ServerThread(_make_ingest(admission=admission)) as server:
        with ServeClient("127.0.0.1", server.port) as client:
            client.hello(handle=1, stream="cam", width=96, height=54)
            _stream_all(client, 1, seq_obj, range(4))
            client.send_raw(encode_json(MSG_HELLO, config))
            msg_type, reply = client.wait_for(MSG_HELLO_OK, MSG_REJECT, timeout=10.0)
            _stream_all(client, 1, seq_obj, range(4, 8))
            summary = client.bye(1, timeout=10.0)
    assert msg_type == MSG_REJECT, reply
    assert summary["status"] == "ok" and summary["frames_processed"] == 8
    report = server.shutdown()
    assert [stats.name for stats in report.streams] == ["cam"]
    return reply


class TestMalformedFields:
    """A well-framed message with a bad field gets a reply, never a dropped
    connection; the connection's other streams keep running."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"\xff\xfe\x00",
            b"[{",
            b'{"x": 1, "y": 1, "w": 4, "h": 4}',
            b"[1, 2]",
            b'[{"x": 1, "y": 1, "w": 4}]',
            b'[{"x": 1, "y": 1, "w": -4, "h": 4}]',
            b'[{"x": "left", "y": 1, "w": 4, "h": 4}]',
            b'[{"x": ' + b"1" * 5000 + b', "y": 1, "w": 4, "h": 4}]',
        ],
        ids=[
            "not-utf8", "not-json", "not-a-list", "not-objects",
            "missing-h", "negative-size", "non-numeric-x", "x-too-long-to-parse",
        ],
    )
    def test_frame_with_malformed_truth_is_refused_and_sealed_as_a_gap(self, blob):
        seq_obj = _sequence(12, width=96, height=54)
        with ServerThread(_make_ingest(reorder_window=4)) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                for handle, stream in ((1, "cam"), (2, "other")):
                    client.hello(
                        handle=handle, stream=stream,
                        width=seq_obj.width, height=seq_obj.height,
                    )
                for seq in range(12):
                    if seq == 4:
                        client.send_raw(
                            _frame_with_truth_blob(1, seq, seq_obj.frame(seq), blob)
                        )
                    else:
                        _stream_all(client, 1, seq_obj, [seq])
                    _stream_all(client, 2, seq_obj, [seq])
                _, error = client.wait_for(MSG_ERROR, timeout=10.0)
                assert client.stats()["streams"]["cam"]["faults"]["frame_errors"] == 1
                summary = client.bye(1, timeout=10.0)
                other = client.bye(2, timeout=10.0)
        assert (error["handle"], error["seq"]) == (1, 4)
        assert error["reason"].startswith("bad FRAME truth")
        assert summary["status"] == "ok"
        assert summary["faults"]["frame_errors"] == 1
        assert summary["faults"]["gaps"] == 1
        assert summary["frames_processed"] == 11
        assert other["status"] == "ok" and other["frames_processed"] == 12
        server.shutdown()

    @pytest.mark.parametrize(
        "config",
        [
            {"handle": "two", "width": 96, "height": 54},
            {"handle": [2], "width": 96, "height": 54},
            {"handle": 2, "stream": ["cam2"], "width": 96, "height": 54},
            {"handle": 2, "width": [96], "height": 54},
            {"handle": 2, "width": 96, "height": 54, "fps": {"rate": 30}},
        ],
        ids=["handle-string", "handle-list", "stream-list", "width-list", "fps-object"],
    )
    def test_malformed_hello_is_rejected(self, config):
        assert _hello_reply(config)["reason"].startswith("bad HELLO")

    @pytest.mark.parametrize("admission", [False, True], ids=["open", "admission"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", "96"),
            ("width", 96.7),
            ("height", True),
            ("window_size", "4"),
            ("rois", 2.9),
            ("fps", "30"),
            ("fps", float("nan")),
            ("window_size", 0),
            ("window_size", 10**400),
            ("rois", -1),
            ("rois", 10**400),
        ],
        ids=[
            "width-string", "width-float", "height-bool", "window-string",
            "rois-float", "fps-string", "fps-nan", "window-zero", "window-huge",
            "rois-negative", "rois-huge",
        ],
    )
    def test_hello_numbers_are_checked_by_json_type(self, field, value, admission):
        """Sizes, window and ROI count must be JSON integers, the window and
        ROI count within 1..65535 and 0..65535, and fps a finite positive
        number; nothing is coerced, and the check comes before admission
        prices the demand."""
        config = {"handle": 2, "stream": "cam2", "width": 96, "height": 54, field: value}
        reason = _hello_reply(config, admission=admission)["reason"]
        assert reason.startswith(f"bad HELLO: {field} ")

    @pytest.mark.parametrize("handle", ["one", [1]], ids=["string", "list"])
    def test_bye_with_a_non_integer_handle_names_no_stream(self, handle):
        seq_obj = _sequence(8, width=96, height=54)
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(handle=1, stream="cam", width=96, height=54)
                _stream_all(client, 1, seq_obj, range(4))
                client.send_raw(encode_json(MSG_BYE, {"handle": handle}))
                _, error = client.wait_for(MSG_ERROR, timeout=10.0)
                _stream_all(client, 1, seq_obj, range(4, 8))
                summary = client.bye(1, timeout=10.0)
        assert error == {"handle": handle, "reason": "no stream"}
        assert summary["status"] == "ok" and summary["frames_processed"] == 8
        server.shutdown()


class TestOneStatsSurface:
    def test_stats_bye_ok_and_report_agree(self):
        seq_obj = _sequence(16, seed=11)
        # A swap, a late re-delivery and a duplicate while buffered: every
        # fault is counted before BYE, and every frame is acked before it.
        arrivals = [0, 1, 3, 2, 4, 5, 7, 7, 6, 8, 9, 5, 10, 11, 12, 13, 14, 15]
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(client, 1, seq_obj, arrivals)
                while len(client.results) < 16:
                    client.wait_for(MSG_RESULT, timeout=30.0)
                live = client.stats()["streams"]["cam"]
                summary = client.bye(1)
        report = server.shutdown()
        (stats,) = report.streams
        registry = stats.as_dict()

        assert set(live) == set(registry) | {"ready_queued", "reorder_buffered"}
        assert set(summary) == set(registry) | {"stream", "status", "handle"}
        for key, value in registry.items():
            assert live[key] == value, key
            assert summary[key] == value, key
        assert registry["frames_processed"] == 16
        assert registry["faults"]["reordered"] > 0
        assert registry["faults"]["late_drops"] == 1
        assert registry["faults"]["duplicates"] == 1
        assert isinstance(stats, StreamStats)
