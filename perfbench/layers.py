"""Per-layer tracing for the benchmark's traced run.

The program carries no spans of its own for these layers yet, so the traced
run wraps the public calls into each layer from here: the wrapper times the
call and counts it, keeping the totals in memory.  A layer's self time is
its span total minus the totals of the spans nested inside it (every nested
call below happens only inside its parent, so the subtraction is exact).

Worker processes forked after :meth:`Tracer.install` inherit the wrappers.
Each worker starts from empty totals; whenever it finishes a stream it
writes the totals gathered since its last write to a new file in
:data:`benchlib.WORK_DIR`, and the parent merges those files with
:meth:`Tracer.merge_worker_files`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from benchlib import WORK_DIR, mean, metric_units

class Tracer:
    """Span totals, call counts and extra counters, kept in memory."""

    def __init__(self) -> None:
        self.time_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: ``(wait_s, busy_s)`` of every executor ``FrameRecord`` seen.
        self.records: List[Tuple[float, float]] = []
        self._parent_pid = os.getpid()
        self._dumps = 0

    # -- state ---------------------------------------------------------
    def reset(self) -> None:
        self.time_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.maxima.clear()
        self.records.clear()

    def export(self) -> dict:
        return {
            "time_s": dict(self.time_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "records": list(self.records),
        }

    def absorb(self, exported: Mapping[str, dict]) -> None:
        for key, value in exported["time_s"].items():
            self.time_s[key] += value
        for key, value in exported["calls"].items():
            self.calls[key] += value
        for key, value in exported["counts"].items():
            self.counts[key] += value
        for key, value in exported["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        self.records.extend(tuple(r) for r in exported["records"])

    def merge_worker_files(self) -> None:
        """Absorb (and delete) the totals forked workers wrote."""
        if not WORK_DIR.exists():
            return
        for path in sorted(WORK_DIR.glob("trace-*.json")):
            self.absorb(json.loads(path.read_text()))
            path.unlink()
        WORK_DIR.rmdir()

    def _dump_if_worker(self) -> None:
        if os.getpid() != self._parent_pid:
            WORK_DIR.mkdir(exist_ok=True)
            self._dumps += 1
            path = WORK_DIR / f"trace-{os.getpid()}-{self._dumps}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.export()))
            os.replace(tmp, path)
            self.reset()

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed, counted wrapper.

        ``after(args, result)`` runs outside the timed region, for counters
        that need the call's arguments or result.
        """
        original = vars(owner)[attr]
        time_s, calls = self.time_s, self.calls
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                time_s[span] += clock() - start
                calls[span] += 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public entry point of every layer."""
        from repro.core import executor, ingest, server, session, streaming
        from repro.core.backends import tracking_backend_for
        from repro.core.extrapolation import MotionExtrapolator
        from repro.isp.denoise import TemporalDenoiseStage
        from repro.isp.pipeline import ISPPipeline
        from repro.motion.block_matching import BlockMatcher
        from repro.soc.frame_cost import CostMeter

        self._parent_pid = os.getpid()
        os.register_at_fork(after_in_child=self.reset)

        def count_rois(args, _result):
            self.counts["extrapolation.rois"] += len(args[1])

        def keep_records(_args, records):
            self.records.extend((r.wait_s, r.busy_s) for r in records)

        def sample_slots(args, _result):
            in_flight = args[0].slots_in_flight
            if in_flight > self.maxima["transport.slots_in_flight"]:
                self.maxima["transport.slots_in_flight"] = in_flight

        def dump(_args, _result):
            self._dump_if_worker()

        self.wrap(session.EuphratesSession, "submit", "session.submit")
        self.wrap(ISPPipeline, "process_luma", "isp")
        self.wrap(TemporalDenoiseStage, "process", "denoise")
        self.wrap(BlockMatcher, "estimate", "motion")
        self.wrap(MotionExtrapolator, "extrapolate_detections", "extrapolation", count_rois)
        self.wrap(type(tracking_backend_for("mdnet")), "infer", "inference")
        self.wrap(CostMeter, "record", "soc.record")
        self.wrap(executor.ShardedExecutor, "submit", "executor.submit")
        self.wrap(executor.ShardedExecutor, "pump", "executor.pump", keep_records)
        self.wrap(executor.ShardedExecutor, "drain", "executor.drain", keep_records)
        self.wrap(executor.InProcessTransport, "send", "transport.send")
        self.wrap(executor.SharedMemoryTransport, "send", "transport.send", sample_slots)
        self.wrap(executor.StreamShard, "finish_stream", "executor.finish_stream", dump)
        self.wrap(streaming.StreamMultiplexer, "submit", "mux.submit")
        self.wrap(streaming.StreamMultiplexer, "pump", "mux.pump")
        self.wrap(server, "decode_frame", "ingest.decode")
        self.wrap(ingest.ReorderWindow, "push", "ingest.reorder_push")
        self.wrap(ingest.IngestCore, "push_frame", "ingest.push")
        self.wrap(ingest.IngestCore, "pump", "ingest.pump")

    # -- per-layer metrics ---------------------------------------------
    def layer_metrics(self, extras: Mapping[str, float]) -> Dict[str, float]:
        """Every per-layer metric from the span totals plus ``extras``.

        Times are per frame processed (``session.submit`` calls) unless the
        name ends in ``_us``, which is per call; ``.calls`` are per frame.
        Metrics a workload supplies itself (window size, counters the
        program reports, generator figures) come in ``extras``; a layer the
        workload never calls reads 0.
        """
        t, n = self.time_s, self.calls
        frames = n["session.submit"]

        def per_frame_ms(*spans: str) -> float:
            return 1e3 * sum(t[s] for s in spans) / frames if frames else 0.0

        def per_call_us(span: str) -> float:
            return 1e6 * t[span] / n[span] if n[span] else 0.0

        def calls_per_frame(span: str) -> float:
            return n[span] / frames if frames else 0.0

        waits = [w for w, _ in self.records]
        busy = [b for _, b in self.records]
        metrics = {
            "isp.process_ms": per_frame_ms("isp"),
            "isp.self_ms": per_frame_ms("isp") - per_frame_ms("denoise"),
            "denoise.process_ms": per_frame_ms("denoise"),
            "denoise.self_ms": per_frame_ms("denoise") - per_frame_ms("motion"),
            "motion.estimate_ms": per_frame_ms("motion"),
            "motion.calls": calls_per_frame("motion"),
            "extrapolation.ms": per_frame_ms("extrapolation"),
            "extrapolation.calls": calls_per_frame("extrapolation"),
            "extrapolation.rois_per_call": (
                self.counts["extrapolation.rois"] / n["extrapolation"]
                if n["extrapolation"] else 0.0
            ),
            "inference.ms": per_frame_ms("inference"),
            "inference.calls": calls_per_frame("inference"),
            "session.submit_ms": per_frame_ms("session.submit"),
            "session.self_ms": per_frame_ms("session.submit")
            - per_frame_ms("isp", "extrapolation", "inference"),
            "soc.record_us": per_call_us("soc.record"),
            "executor.submit_ms": per_frame_ms("executor.submit"),
            "executor.pump_ms": per_frame_ms("executor.pump", "executor.drain"),
            "executor.queue_wait_ms": 1e3 * mean(waits),
            "executor.busy_ms": 1e3 * mean(busy),
            "transport.send_us": per_call_us("transport.send"),
            "transport.slots_in_flight_max": self.maxima["transport.slots_in_flight"],
            "mux.submit_ms": per_frame_ms("mux.submit"),
            "mux.pump_ms": per_frame_ms("mux.pump"),
            "ingest.decode_us": per_call_us("ingest.decode"),
            "ingest.reorder_push_us": per_call_us("ingest.reorder_push"),
            "ingest.push_ms": per_frame_ms("ingest.push"),
            "ingest.pump_ms": per_frame_ms("ingest.pump"),
        }
        for name in metric_units(trace=True):
            if name not in metrics:
                metrics[name] = float(extras.get(name, 0.0))
        return metrics
