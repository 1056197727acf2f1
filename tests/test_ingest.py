"""Tests for the ingestion core: protocol, reorder window, admission."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.backends import tracking_backend_for
from repro.core.executor import StreamFailedError
from repro.core.geometry import BoundingBox
from repro.core.ingest import (
    DEGRADE_QUEUE_FACTOR,
    MSG_FRAME,
    MSG_HELLO,
    AdmissionError,
    IngestConfig,
    IngestCore,
    ProtocolError,
    ReorderWindow,
    decode_frame,
    decode_json,
    encode_frame,
    encode_json,
    encode_message,
    read_message,
)
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.core.types import Detection, FrameKind, FrameTelemetry
from repro.nn.models import build_mdnet
from repro.soc.frame_cost import CapacityModel, StreamDemand, _md1_wait_s

from test_session import assert_results_identical


def _frame(seed: int, shape=(24, 32)) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 255, size=shape, dtype=np.uint8)


def collect_records(core: IngestCore) -> list:
    """Observe ``core``: every ``(record, seq)`` pair lands in the list returned."""
    records: list = []
    core.on_record = lambda record, seq: records.append((record, seq))
    return records


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        frame = _frame(3)
        truth = [
            Detection(box=BoundingBox(4.5, 6.0, 10.0, 8.0), label="car", object_id=2)
        ]
        wire = encode_frame(7, 42, frame, truth)
        buffer = bytearray(wire)
        msg_type, body = read_message(buffer)
        assert msg_type == MSG_FRAME
        assert not buffer  # fully consumed
        handle, seq, decoded, decoded_truth = decode_frame(body)
        assert (handle, seq) == (7, 42)
        np.testing.assert_array_equal(decoded, frame)
        assert decoded.dtype == np.uint8  # never widened, never pickled
        assert decoded_truth[0].box == truth[0].box
        assert decoded_truth[0].object_id == 2

    def test_frame_without_truth(self):
        _h, _s, decoded, truth = decode_frame(
            bytearray(encode_frame(0, 0, _frame(1)))[5:]
        )
        np.testing.assert_array_equal(decoded, _frame(1))
        assert truth is None

    def test_json_roundtrip(self):
        buffer = bytearray(encode_json(MSG_HELLO, {"width": 32, "height": 24}))
        msg_type, body = read_message(buffer)
        assert msg_type == MSG_HELLO
        assert decode_json(body) == {"width": 32, "height": 24}

    def test_partial_messages_wait_for_more_bytes(self):
        wire = encode_frame(1, 2, _frame(5))
        buffer = bytearray()
        for offset in range(0, len(wire) - 1, 16):
            buffer.extend(wire[offset : offset + 16])
            if len(buffer) < len(wire):
                assert read_message(bytearray(buffer)) is None
        buffer = bytearray(wire)
        assert read_message(buffer) is not None

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ProtocolError, match="uint8"):
            encode_frame(0, 0, _frame(1).astype(np.float64))

    def test_rejects_truncated_frame_body(self):
        wire = encode_frame(0, 0, _frame(1))
        body = bytearray(wire)[5:]
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(body[:-3])

    def test_rejects_bad_length(self):
        with pytest.raises(ProtocolError, match="bad message length"):
            read_message(bytearray(b"\x00\x00\x00\x00extra"))

    def test_decoded_frame_is_zero_copy_view(self):
        frame = _frame(9)
        body = bytearray(encode_frame(0, 0, frame))[5:]
        _h, _s, decoded, _t = decode_frame(body)
        assert decoded.base is not None  # a view, not a copy

    def test_message_framing_is_length_prefixed(self):
        wire = encode_message(MSG_HELLO, b"abc")
        assert wire[:4] == (4).to_bytes(4, "big")  # type byte + 3 body bytes


# ----------------------------------------------------------------------
# Reorder window
# ----------------------------------------------------------------------
class TestReorderWindow:
    def test_in_order_passthrough(self):
        window = ReorderWindow(4)
        released = []
        for seq in range(6):
            released.extend(window.push(seq, seq))
        assert released == [(s, s, False) for s in range(6)]
        assert window.gaps == 0 and window.reordered == 0

    def test_out_of_order_reassembly(self):
        window = ReorderWindow(4)
        released = []
        for seq in [0, 2, 1, 4, 3, 5]:
            released.extend(window.push(seq, seq))
        assert [r[0] for r in released] == [0, 1, 2, 3, 4, 5]
        assert all(not gap for _, _, gap in released)
        assert window.reordered > 0 and window.gaps == 0

    def test_duplicate_buffered_and_late_drops(self):
        window = ReorderWindow(4)
        window.push(0, 0)
        window.push(2, 2)
        window.push(2, 2)  # duplicate while buffered
        assert window.duplicates == 1
        window.push(1, 1)  # releases 1 and 2
        assert window.push(2, 2) == []  # late re-delivery after release
        assert window.late_drops == 1

    def test_gap_sealed_when_window_fills(self):
        window = ReorderWindow(3)
        assert window.push(0, 0) == [(0, 0, False)]
        released = []
        for seq in [2, 3, 4]:  # 1 never arrives; buffer hits capacity at 5
            released.extend(window.push(seq, seq))
        assert released == []
        released = window.push(5, 5)
        assert released[0] == (2, 2, True)  # gap sealed: 1 skipped
        assert [r[0] for r in released] == [2, 3, 4, 5]
        assert window.gaps == 1

    def test_flush_releases_stragglers_with_gap(self):
        window = ReorderWindow(8)
        window.push(0, 0)
        window.push(3, 3)
        window.push(5, 5)
        released = window.flush()
        assert released == [(3, 3, True), (5, 5, True)]
        assert window.gaps == 2
        assert window.buffered == 0

    def test_never_delivers_twice(self):
        window = ReorderWindow(2)
        delivered = []
        import random

        rng = random.Random(5)
        arrivals = [s for s in range(30) for _ in range(rng.randint(1, 2))]
        rng.shuffle(arrivals)
        for seq in arrivals:
            delivered.extend(r[0] for r in window.push(seq, seq))
        delivered.extend(r[0] for r in window.flush())
        assert len(delivered) == len(set(delivered))
        assert delivered == sorted(delivered)


# ----------------------------------------------------------------------
# Admission control: pinned to the QueueingEstimate math
# ----------------------------------------------------------------------
#: Admission values for MDNet on the default SoC, keyed by
#: ``(extrapolation host, window, rois)``: the mean service time, the
#: utilization of one 30 fps stream, and whether a 60 fps stream is admitted
#: next to it.  Pinned so the latency rule admission shares with metering
#: cannot drift.
PINNED_ADMISSION = {
    ("mc", 1, 0): (0.013654479, 0.40963437, False),
    ("mc", 1, 1): (0.013654479, 0.40963437, False),
    ("mc", 1, 10): (0.013654479, 0.40963437, False),
    ("mc", 2, 0): (0.0068272395, 0.204817185, True),
    ("mc", 2, 1): (0.006839739500000001, 0.20519218500000003, True),
    ("mc", 2, 10): (0.0069522395, 0.20856718500000002, True),
    ("mc", 8, 0): (0.001706809875, 0.05120429625, True),
    ("mc", 8, 1): (0.001728684875, 0.05186054625, True),
    ("mc", 8, 10): (0.001925559875, 0.05776679625, True),
    ("cpu", 1, 0): (0.013654479, 0.40963437, False),
    ("cpu", 1, 1): (0.013654479, 0.40963437, False),
    ("cpu", 1, 10): (0.013654479, 0.40963437, False),
    ("cpu", 2, 0): (0.0068272395, 0.204817185, True),
    ("cpu", 2, 1): (0.0085772395, 0.257317185, True),
    ("cpu", 2, 10): (0.0085772395, 0.257317185, True),
    ("cpu", 8, 0): (0.001706809875, 0.05120429625, True),
    ("cpu", 8, 1): (0.004769309875000001, 0.14307929625000002, True),
    ("cpu", 8, 10): (0.004769309875000001, 0.14307929625000002, True),
}


@pytest.fixture(scope="module")
def capacity():
    spec = PipelineSpec(extrapolation_window=4)
    return CapacityModel(spec.vision_soc(), build_mdnet())


class TestCapacityModel:
    def test_service_time_mixes_i_and_e_frames(self, capacity):
        meter = PipelineSpec(extrapolation_window=4).vision_soc().open_meter(
            build_mdnet()
        )
        i_time = meter.price(FrameTelemetry(0, FrameKind.INFERENCE)).latency_s
        e_time = meter.price(
            FrameTelemetry(0, FrameKind.EXTRAPOLATION, rois=1)
        ).latency_s
        assert capacity.frame_service_time_s(1) == pytest.approx(i_time)
        assert capacity.frame_service_time_s(4) == pytest.approx(
            (i_time + 3 * e_time) / 4
        )

    def test_projection_matches_md1_form(self, capacity):
        demand = StreamDemand(fps=30.0, window_size=4)
        estimate = capacity.projection([demand])
        service = capacity.frame_service_time_s(4)
        assert estimate.arrival_rate_hz == pytest.approx(30.0)
        assert estimate.service_time_s == pytest.approx(service)
        assert estimate.utilization == pytest.approx(30.0 * service)
        assert estimate.mean_wait_s == pytest.approx(
            _md1_wait_s(estimate.utilization, service)
        )

    def test_single_stream_boundary_exact(self, capacity):
        """Reject exactly at utilization == 1, admit just below."""
        service = capacity.frame_service_time_s(4)
        exactly_full = StreamDemand(fps=1.0 / service, window_size=4)
        assert capacity.projection([exactly_full]).utilization == pytest.approx(1.0)
        assert not capacity.admits([], exactly_full)
        assert math.isinf(capacity.projection([exactly_full]).mean_wait_s)
        just_below = StreamDemand(fps=0.999 / service, window_size=4)
        assert capacity.admits([], just_below)
        assert math.isfinite(capacity.projection([just_below]).mean_wait_s)

    def test_overload_boundary_across_streams(self, capacity):
        """The stream that pushes total utilization to 1 is the one rejected."""
        service = capacity.frame_service_time_s(4)
        per_stream = StreamDemand(fps=0.3 / service, window_size=4)  # rho = 0.3
        admitted = []
        assert capacity.admits(admitted, per_stream)
        admitted.append(per_stream)
        assert capacity.admits(admitted, per_stream)  # 0.6
        admitted.append(per_stream)
        assert capacity.admits(admitted, per_stream)  # 0.9
        admitted.append(per_stream)
        assert not capacity.admits(admitted, per_stream)  # 1.2 >= 1
        assert capacity.projection(admitted + [per_stream]).utilization >= 1.0

    def test_zero_demand_projection(self, capacity):
        estimate = capacity.projection([])
        assert estimate.utilization == 0.0
        assert estimate.mean_wait_s == 0.0

    def test_demand_validation(self):
        with pytest.raises(ValueError, match="fps"):
            StreamDemand(fps=0.0)
        with pytest.raises(ValueError, match="window_size"):
            StreamDemand(fps=30.0, window_size=0)

    @pytest.mark.parametrize("host, window, rois", sorted(PINNED_ADMISSION), ids=str)
    def test_pinned_values(self, host, window, rois):
        service_s, utilization, admits = PINNED_ADMISSION[(host, window, rois)]
        capacity = CapacityModel(
            PipelineSpec().vision_soc(),
            build_mdnet(),
            extrapolation_on_cpu=host == "cpu",
        )
        stream = StreamDemand(fps=30.0, window_size=window, rois=rois)
        candidate = StreamDemand(fps=60.0, window_size=window, rois=rois)
        assert capacity.frame_service_time_s(window, rois) == service_s
        assert capacity.projection([stream]).utilization == utilization
        assert capacity.admits([stream], candidate) is admits


class TestIngestAdmission:
    def _core(self, capacity, **config_kwargs):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline, isolate_failures=True)
        return IngestCore(
            mux, capacity=capacity, config=IngestConfig(**config_kwargs)
        )

    def test_rejects_at_capacity(self, capacity):
        core = self._core(capacity)
        service = capacity.frame_service_time_s(4)
        fps = 0.4 / service
        core.open_stream("a", width=32, height=24, fps=fps, window_size=4)
        core.open_stream("b", width=32, height=24, fps=fps, window_size=4)
        with pytest.raises(AdmissionError, match="utilization"):
            core.open_stream("c", width=32, height=24, fps=fps, window_size=4)
        assert list(core.stats()["streams"]) == ["a", "b"]
        core.finish()

    def test_closed_stream_frees_capacity(self, capacity):
        core = self._core(capacity)
        service = capacity.frame_service_time_s(4)
        fps = 0.6 / service
        core.open_stream("a", width=32, height=24, fps=fps, window_size=4)
        with pytest.raises(AdmissionError):
            core.open_stream("b", width=32, height=24, fps=fps, window_size=4)
        core.close_stream("a")
        core.open_stream("b", width=32, height=24, fps=fps, window_size=4)
        core.finish()

    def test_admission_needs_capacity_model(self):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline)
        with pytest.raises(ValueError, match="CapacityModel"):
            IngestCore(mux, config=IngestConfig(admission=True))
        mux.close()

    def test_admission_can_be_disabled(self):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline)
        core = IngestCore(mux, config=IngestConfig(admission=False))
        core.open_stream("a", width=32, height=24, fps=1e9)
        core.finish()


# ----------------------------------------------------------------------
# Overload policies
# ----------------------------------------------------------------------
class TestOverloadPolicies:
    def _core(self, policy: str, capacity_frames: int = 4, feed_depth: int = 1):
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet"))
        mux = StreamMultiplexer(pipeline, isolate_failures=True)
        core = IngestCore(
            mux,
            config=IngestConfig(
                admission=False,
                queue_capacity=capacity_frames,
                overload_policy=policy,
                feed_depth=feed_depth,
                reorder_window=4,
            ),
        )
        return core

    def _sequence(self, frames=24):
        from repro.video.synthetic import SequenceConfig, SequenceGenerator

        return SequenceGenerator(
            SequenceConfig(
                name="cam", frame_width=64, frame_height=48,
                num_frames=frames, num_objects=1, seed=3,
            )
        ).generate()

    def test_drop_oldest_sheds_and_seals_gap(self):
        core = self._core("drop-oldest", capacity_frames=3, feed_depth=1)
        records = collect_records(core)
        seq = self._sequence()
        core.open_stream("cam", width=seq.width, height=seq.height)
        # feed_depth=1 with no pumping: the ready queue backs up past 3.
        for index in range(12):
            core.push_frame(
                "cam", index, seq.frame(index), truth=seq.truth_detections(index)
            )
        faults = core.multiplexer.stats_for("cam")
        assert faults.overload_drops > 0
        assert faults.gaps >= faults.overload_drops
        result = core.close_stream("cam")
        # Dropped frames never produce results; survivors all do.
        assert len(result.frames) == 12 - faults.overload_drops
        # The telemetry records the drops as forced-I gap seals (runs of
        # consecutive drops collapse into one seal on the next survivor).
        gap_tagged = [
            r
            for r, _seq in records
            if r.telemetry is not None
            and "dropped-frame-gap" in r.telemetry.degradation
        ]
        assert len(gap_tagged) >= 1
        assert faults.degraded_frames == len(gap_tagged)
        core.finish()

    def test_degrade_defers_inference_instead_of_dropping(self):
        # Capacity 6: the 11-frame backlog stays under the degrade bound
        # (DEGRADE_QUEUE_FACTOR * capacity) but past capacity.
        core = self._core("degrade", capacity_frames=6, feed_depth=1)
        records = collect_records(core)
        seq = self._sequence()
        core.open_stream("cam", width=seq.width, height=seq.height)
        # faults is the stream's live stats: it keeps updating through the
        # backlogged feed that close_stream() drives.
        faults = core.multiplexer.stats_for("cam")
        for index in range(12):
            core.push_frame(
                "cam", index, seq.frame(index), truth=seq.truth_detections(index)
            )
        result = core.close_stream("cam")
        assert faults.overload_drops == 0
        assert faults.degraded_submits > 0
        assert len(result.frames) == 12  # nothing shed
        degraded = [
            r
            for r, _seq in records
            if r.telemetry is not None and "queue-degrade" in r.telemetry.degradation
        ]
        assert len(degraded) == faults.degraded_submits
        core.finish()

    def test_degrade_widens_effective_window(self):
        """Deferred I-frames => fewer inferences than the unloaded run."""
        seq = self._sequence()
        # Capacity 12: the 23-frame backlog stays under the degrade bound.
        loaded = self._core("degrade", capacity_frames=12, feed_depth=1)
        loaded.open_stream("cam", width=seq.width, height=seq.height)
        for index in range(24):
            loaded.push_frame(
                "cam", index, seq.frame(index), truth=seq.truth_detections(index)
            )
        loaded_result = loaded.close_stream("cam")
        loaded.finish()

        easy = self._core("degrade", capacity_frames=64, feed_depth=64)
        easy.open_stream("cam", width=seq.width, height=seq.height)
        for index in range(24):
            easy.push_frame(
                "cam", index, seq.frame(index), truth=seq.truth_detections(index)
            )
        easy_result = easy.close_stream("cam")
        easy.finish()

        assert loaded_result.inference_count <= easy_result.inference_count

    @pytest.mark.parametrize(
        "policy, bound",
        [("drop-oldest", 32), ("degrade", 32 * DEGRADE_QUEUE_FACTOR)],
    )
    def test_ready_queue_stays_bounded_without_pumping(self, policy, bound):
        """Memory stays bounded under every overload policy."""
        core = self._core(policy, capacity_frames=32, feed_depth=8)
        seq = self._sequence()
        core.open_stream("cam", width=seq.width, height=seq.height)
        truth = seq.truth_detections(0)
        for index in range(2000):
            core.push_frame("cam", index, seq.frame(0), truth=truth)
        row = core.stats()["streams"]["cam"]
        assert row["ready_queued"] == bound
        assert row["frames_submitted"] == 8  # feed_depth, never pumped
        assert row["faults"]["overload_drops"] == 2000 - 8 - bound
        assert row["faults"]["gaps"] == row["faults"]["overload_drops"]
        core.multiplexer.close()

    def test_telemetry_records_every_fault_event(self):
        core = self._core("drop-oldest", capacity_frames=8, feed_depth=8)
        records = collect_records(core)
        seq = self._sequence()
        core.open_stream("cam", width=seq.width, height=seq.height)
        # Drop seq 2 entirely; deliver 5 twice; 7 before 6.
        arrivals = [0, 1, 3, 4, 5, 5, 7, 6, 8, 9]
        for s in arrivals:
            core.push_frame("cam", s, seq.frame(s), truth=seq.truth_detections(s))
        faults = core.multiplexer.stats_for("cam")
        result = core.close_stream("cam")
        assert len(result.frames) == 9  # 10 seqs, one (2) missing
        assert faults.duplicates == 1
        assert faults.gaps == 1
        assert faults.reordered > 0
        tags = [
            r.telemetry.degradation
            for r, _seq in records
            if r.telemetry is not None and r.telemetry.degradation
        ]
        assert any("dropped-frame-gap" in tag for tag in tags)
        core.finish()


# ----------------------------------------------------------------------
# Failed streams
# ----------------------------------------------------------------------
class TestFailedStreams:
    def test_a_failure_the_pump_finds_is_raised_by_the_next_frame(self):
        """The pump can find a stream failed while a frame still waits in its
        ready queue.  The stream's next frame raises StreamFailedError with
        the reason, and aborting the stream closes it in every layer, so its
        name is served again from a fresh session."""
        from repro.video.synthetic import SequenceConfig, SequenceGenerator

        seq = SequenceGenerator(
            SequenceConfig(
                name="cam", frame_width=64, frame_height=48,
                num_frames=6, num_objects=1, seed=3,
            )
        ).generate()
        spec = PipelineSpec(extrapolation_window=4)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), isolate_failures=True
        )
        core = IngestCore(mux, config=IngestConfig(admission=False, feed_depth=1))
        core.open_stream("cam", width=seq.width, height=seq.height)
        # A tracking stream starts from its first frame's truth: frame 0
        # fails the session while frame 1 waits behind it.
        core.push_frame("cam", 0, seq.frame(0))
        core.push_frame("cam", 1, seq.frame(1))
        core.pump()
        assert "no annotated objects" in core.stats()["failures"]["cam"]
        with pytest.raises(StreamFailedError, match="no annotated objects"):
            core.push_frame("cam", 2, seq.frame(2))
        core.abort_stream("cam")
        assert core.stats()["failures"] == {}
        with pytest.raises(KeyError):
            mux.stats_for("cam")

        core.open_stream("cam", width=seq.width, height=seq.height)
        for index in range(seq.num_frames):
            core.push_frame("cam", index, seq.frame(index), seq.truth_detections(index))
        reborn = core.close_stream("cam")
        assert_results_identical(
            spec.build(tracking_backend_for("mdnet")).run(seq), reborn
        )
        assert [stats.name for stats in mux.report().streams] == ["cam", "cam"]
        core.finish()
