"""Stage profiler: telemetry stage clocks, aggregation, and the profile table.

The session stamps per-stage wall-clock fields (``isp_s``,
``motion_search_s``, ``denoise_blend_s``, ``extrapolation_s``,
``inference_s``, ``total_s``) onto every :class:`FrameTelemetry` record;
:mod:`repro.core.profiler` folds them into per-kind breakdowns for the
``profile`` subcommand, the pipeline bench and the multiplexer's per-stream
stats.  These tests pin the plumbing: fields populated for the right frame
kinds, the decomposition accounting for the whole frame clock, and the
rendered table/CLI output.
"""

from __future__ import annotations

import pytest

from repro.core.backends import tracking_backend_for
from repro.core.profiler import STAGE_NAMES, StageProfiler, stage_seconds
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.core.types import FrameKind
from repro.harness.pipeline_perf import (
    format_profile_table,
    make_sequence,
    profile_report,
)

TINY = {"tiny": (96, 128)}


def run_tiny_session(num_frames: int = 9, window: int = 4):
    spec = PipelineSpec(extrapolation_window=window)
    pipeline = spec.build(tracking_backend_for("mdnet"))
    sequence = make_sequence(96, 128, num_frames, seed=0)
    return pipeline.run(sequence).telemetry


class TestTelemetryStageClocks:
    def test_stage_fields_populated_per_kind(self):
        telemetry = run_tiny_session()
        assert len(telemetry) == 9
        for index, record in enumerate(telemetry):
            assert record.total_s > 0.0
            assert record.isp_s > 0.0
            if index > 0:
                # Every frame after the first runs motion search + blend.
                assert record.motion_search_s > 0.0
                assert record.denoise_blend_s > 0.0
            if record.kind is FrameKind.INFERENCE:
                assert record.inference_s > 0.0
            else:
                assert record.extrapolation_s > 0.0
                assert record.inference_s == 0.0

    def test_stage_seconds_accounts_for_the_whole_frame(self):
        for record in run_tiny_session():
            seconds = stage_seconds(record)
            assert set(seconds) == set(STAGE_NAMES)
            assert all(value >= 0.0 for value in seconds.values())
            # The sub-stage clocks nest inside isp_s / total_s, so the
            # decomposition re-sums to the whole-frame clock.
            assert sum(seconds.values()) == pytest.approx(
                record.total_s, rel=1e-6, abs=1e-9
            )
            assert (
                seconds["motion_search"] + seconds["denoise_blend"]
                <= record.isp_s + 1e-9
            )


class TestStageProfiler:
    def test_observe_splits_by_kind(self):
        telemetry = run_tiny_session(num_frames=9, window=4)
        profiler = StageProfiler()
        for record in telemetry:
            profiler.observe(record)
        i_frames = sum(
            1 for r in telemetry if r.kind is not FrameKind.EXTRAPOLATION
        )
        assert profiler.summary("I").frames == i_frames
        assert profiler.summary("E").frames == len(telemetry) - i_frames
        assert profiler.frames == len(telemetry)

    def test_rows_shares_sum_to_one(self):
        profiler = StageProfiler()
        for record in run_tiny_session():
            profiler.observe(record)
        for kind in ("I", "E"):
            rows = profiler.summary(kind).rows()
            assert rows
            assert sum(row["share"] for row in rows) == pytest.approx(1.0, rel=1e-6)
            names = [row["stage"] for row in rows]
            assert names == [n for n in STAGE_NAMES if n in names]  # display order


class TestProfileReport:
    def test_report_and_table(self):
        report = profile_report(
            PipelineSpec(), resolutions=TINY, num_frames=8, seed=0
        )
        assert report["sections"]
        kinds = {(s["resolution"], s["schedule"], s["kind"]) for s in report["sections"]}
        assert ("tiny", "e_heavy", "E") in kinds
        assert ("tiny", "i_heavy", "I") in kinds
        table = format_profile_table(report)
        assert "tiny e_heavy (EW=8) E-frames" in table
        assert "motion_search" in table
        assert "ms/frame" in table
        for section in report["sections"]:
            for row in section["stages"]:
                assert row["mean_s"] >= 0.0

    def test_cli_profile_subcommand(self, capsys):
        """``python -m repro.harness profile`` prints the breakdown table."""
        from repro.harness import cli
        from repro.harness import pipeline_perf

        original = pipeline_perf.profile_report

        def tiny_report(spec, resolutions=None, **kwargs):
            return original(spec, resolutions=TINY, num_frames=6, seed=0)

        pipeline_perf.profile_report = tiny_report
        try:
            exit_code = cli.main(["profile", "--frames", "6"])
        finally:
            pipeline_perf.profile_report = original
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "motion_search" in out
        assert "denoise_blend" in out
        assert "fps" in out


class TestStreamStatsCarryThrough:
    def test_multiplexer_accumulates_stage_seconds(self):
        pipeline = PipelineSpec(extrapolation_window=4).build(
            tracking_backend_for("mdnet")
        )
        mux = StreamMultiplexer(pipeline)
        sequence = make_sequence(96, 128, 8, seed=0)
        mux.add_stream("cam", width=sequence.width, height=sequence.height)
        for index, frame in sequence.iter_frames():
            mux.submit("cam", frame, truth=sequence.truth_detections(index))
        mux.drain()
        mux.finish()
        (stats,) = mux.report().streams
        assert set(stats.stage_s) == set(STAGE_NAMES)
        assert stats.stage_s["motion_search"] > 0.0
        assert stats.stage_s["denoise_blend"] > 0.0
        assert stats.stage_s["inference"] > 0.0
        assert sum(stats.stage_s.values()) > 0.0
