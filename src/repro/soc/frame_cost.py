"""Per-frame SoC costing: one pricing core for analytic and measured energy.

Historically the hardware model was closed-form arithmetic over an aggregate
:class:`~repro.soc.soc.FrameSchedule` — fine for constant-EW sweeps, but the
live pipeline (:class:`~repro.core.session.EuphratesSession`, the
:class:`~repro.core.streaming.StreamMultiplexer`) never produced hardware
cost, so adaptive-EW and multi-camera energy were approximations.  This
module closes that gap with an event API:

* the pipeline emits one :class:`~repro.core.types.FrameTelemetry` record
  per processed frame (observe-only — outputs are untouched);
* :meth:`CostMeter.price` turns one event into a :class:`FrameCost` — the
  frame's backend latency, active-unit times, DRAM traffic and compute ops;
* :meth:`CostMeter.record` folds priced events into running totals, and
  :meth:`CostMeter.breakdown` finalises the fold into the same
  :class:`~repro.soc.soc.EnergyBreakdown` the analytic path reports.

``VisionSoC.evaluate*`` is itself implemented as a fold over synthetic
events (one per schedule bucket, with a count multiplier), so the analytic
constant-EW path and the measured path share exactly this costing core —
property-tested for equivalence in ``tests/test_frame_cost.py``.

Energy that is *rate*-like (frontend capture power, DRAM background, NNX/MC
idle leakage) can only be charged against an interval, so the fold carries
active times and settles those terms at :meth:`CostMeter.breakdown` using
``wall = max(backend compute time, frames x capture period)`` — the same
steady-state wall-clock rule the closed-form model always used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..core.types import FrameKind, FrameTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nn.models import NetworkSpec
    from .soc import EnergyBreakdown, VisionSoC


@dataclass(frozen=True)
class FrameCost:
    """Hardware cost of processing one frame (marginal, per-event terms).

    Interval-shared terms (frontend power, DRAM background, idle leakage)
    are intentionally absent — they belong to the fold, not to any single
    frame; :meth:`CostMeter.breakdown` settles them over the wall clock.
    """

    kind: FrameKind
    #: Backend compute latency of this frame: a full NNX inference on
    #: I-frames, ROI extrapolation (MC or CPU host) on E-frames.
    latency_s: float
    #: Time the NNX spends active on this frame (0 on E-frames).
    nnx_active_s: float
    #: Time the MC datapath spends extrapolating (0 on I-frames and under
    #: the CPU host).
    mc_busy_s: float
    #: Energy charged to the CPU cluster (software-hosted extrapolation:
    #: wake the cluster, run, park again).
    cpu_energy_j: float
    #: DRAM traffic of this frame: frame-buffer in/out, MV metadata, plus
    #: the I-frame inference payload or the E-frame MC accesses.
    traffic_bytes: int
    #: Vision-algorithm compute (CNN ops or MC fixed-point ops).
    ops: float


@dataclass(frozen=True)
class QueueingEstimate:
    """M/D/1-style queueing view of a metered backend.

    The wall-clock rule (``wall = max(compute, capture)``) says whether a
    stream keeps up *on average*; this adds the next-order effect — frames
    arriving at rate λ at a backend with (near-)deterministic service time
    D queue behind each other.  Mean waiting time uses the M/D/1
    Pollaczek–Khinchine form ``W = ρD / 2(1-ρ)``; at ρ >= 1 the queue has
    no steady state and the wait is reported as ``inf``.
    """

    arrival_rate_hz: float
    service_time_s: float
    utilization: float
    mean_wait_s: float

    @property
    def mean_latency_s(self) -> float:
        """Mean queueing wait plus one service time."""
        return self.mean_wait_s + self.service_time_s


def _md1_wait_s(utilization: float, service_time_s: float) -> float:
    if utilization >= 1.0:
        return math.inf
    if utilization <= 0.0:
        return 0.0
    return utilization * service_time_s / (2.0 * (1.0 - utilization))


class CostMeter:
    """Prices :class:`~repro.core.types.FrameTelemetry` events on one SoC.

    One meter = one stream (or one analytic schedule) on one network.
    ``extrapolation_on_cpu`` selects the E-frame host (the EW-N@CPU
    configurations of Fig. 9b).  ``assume_nominal_capture`` prices every
    event at the SoC's nominal frame size regardless of the pixels the
    event actually recorded — the measured experiment mode uses this so a
    small synthetic run is priced as if captured at the modeled 1080p60
    setting, making measured and analytic tables directly comparable (the
    measured part is then the I/E schedule and the true ROI counts).
    """

    def __init__(
        self,
        soc: "VisionSoC",
        network: "NetworkSpec",
        *,
        extrapolation_on_cpu: bool = False,
        assume_nominal_capture: bool = False,
        label: Optional[str] = None,
    ) -> None:
        self.soc = soc
        self.network = network
        self.extrapolation_on_cpu = extrapolation_on_cpu
        self.assume_nominal_capture = assume_nominal_capture
        self.label = label or network.name
        # Per-inference constants (they do not vary event to event).
        self._inference_latency_s = soc.nnx.inference_latency_s(network)
        self._input_bytes = soc.network_input_bytes(network)
        (
            self._inference_input_traffic,
            self._inference_weight_traffic,
            self._inference_activation_traffic,
        ) = soc.nnx.inference_traffic_parts(network, self._input_bytes)
        self._cpu_cost = soc.cpu.extrapolation_cost()
        # Fold state.
        self.frames = 0
        self.inference_frames = 0
        self.extrapolation_frames = 0
        self.backend_time_s = 0.0
        self.nnx_active_s = 0.0
        self.mc_busy_s = 0.0
        self.cpu_energy_j = 0.0
        self.traffic_bytes = 0
        self.ops = 0.0

    # ------------------------------------------------------------------
    # Pricing (pure)
    # ------------------------------------------------------------------
    def _event_pixels(self, event: FrameTelemetry) -> Optional[int]:
        if self.assume_nominal_capture or event.pixels is None:
            return None  # the SoC's nominal capture setting
        return event.pixels

    def price(self, event: FrameTelemetry, batch_size: int = 1) -> FrameCost:
        """Price one frame event; pure (no fold-state update).

        ``batch_size`` is the size of the I-frame batch this inference was
        dispatched in: the NNX keeps weights resident across a batch, so
        the weight DRAM traffic is amortised over ``batch_size`` frames
        (the multiplexer's batched-inference pricing).  Ignored for
        E-frames.
        """
        soc = self.soc
        pixels = self._event_pixels(event)
        frontend_traffic = soc.frontend_traffic_bytes_per_frame(pixels)
        metadata_bytes = soc.motion_metadata_bytes_per_frame(pixels=pixels)

        if event.kind is FrameKind.INFERENCE:
            latency = self._inference_latency_s
            nnx_active = latency
            mc_busy = 0.0
            cpu_energy = 0.0
            payload = soc.nnx.batched_traffic_bytes(
                self._inference_input_traffic,
                self._inference_weight_traffic,
                self._inference_activation_traffic,
                batch_size,
            )
            ops = float(self.network.ops_per_frame)
        else:
            rois = max(0, int(event.rois))
            mc = soc.motion_controller
            if self.extrapolation_on_cpu:
                mc_busy = 0.0
                latency = self._cpu_cost.latency_s if rois else 0.0
                cpu_energy = self._cpu_cost.energy_j if rois else 0.0
            else:
                latency = mc.extrapolation_latency_s(rois)
                mc_busy = latency
                cpu_energy = 0.0
            payload = mc.extrapolation_traffic_bytes(metadata_bytes, rois)
            ops = mc.extrapolation_ops(rois)

        return FrameCost(
            kind=event.kind,
            latency_s=latency,
            nnx_active_s=nnx_active if event.kind is FrameKind.INFERENCE else 0.0,
            mc_busy_s=mc_busy,
            cpu_energy_j=cpu_energy,
            traffic_bytes=int(frontend_traffic + metadata_bytes + payload),
            ops=ops,
        )

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def record(
        self, event: FrameTelemetry, count: int = 1, batch_size: int = 1
    ) -> FrameCost:
        """Price ``event`` and fold it into the totals ``count`` times.

        The analytic path records one event per schedule bucket with a
        large ``count``; the measured path records each frame's event with
        ``count=1`` — both land in identical fold state.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        cost = self.price(event, batch_size=batch_size)
        if count == 0:
            return cost
        self.frames += count
        if event.kind is FrameKind.INFERENCE:
            self.inference_frames += count
        else:
            self.extrapolation_frames += count
        self.backend_time_s += count * cost.latency_s
        self.nnx_active_s += count * cost.nnx_active_s
        self.mc_busy_s += count * cost.mc_busy_s
        self.cpu_energy_j += count * cost.cpu_energy_j
        self.traffic_bytes += count * cost.traffic_bytes
        self.ops += count * cost.ops
        return cost

    def record_all(self, events, batch_size: int = 1) -> int:
        """Fold an iterable of events; returns how many were recorded."""
        recorded = 0
        for event in events:
            self.record(event, batch_size=batch_size)
            recorded += 1
        return recorded

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    @property
    def wall_time_s(self) -> float:
        """Steady-state wall clock: compute-bound or capture-bound."""
        capture_time = self.frames * self.soc.config.frame_period_s
        return max(self.backend_time_s, capture_time)

    @property
    def inference_rate(self) -> float:
        return self.inference_frames / self.frames if self.frames else 0.0

    def breakdown(self, label: Optional[str] = None) -> "EnergyBreakdown":
        """Settle the interval-shared terms and return the energy summary.

        Non-destructive: the fold state is kept, so a live consumer can ask
        for a running breakdown while frames keep arriving.
        """
        from .soc import EnergyBreakdown

        if self.frames == 0:
            raise ValueError("no frames recorded; nothing to break down")
        soc = self.soc
        config = soc.config
        wall_time = self.wall_time_s
        fps = self.frames / wall_time

        frontend_energy = config.frontend_power_w * wall_time
        nnx = soc.nnx
        nnx_energy = nnx.config.active_power_w * self.nnx_active_s + nnx.idle_energy_j(
            max(0.0, wall_time - self.nnx_active_s)
        )
        mc = soc.motion_controller
        mc_energy = mc.config.active_power_w * self.mc_busy_s + mc.idle_energy_j(
            max(0.0, wall_time - self.mc_busy_s)
        )
        memory_energy = soc.dram.energy_j(self.traffic_bytes, wall_time)

        return EnergyBreakdown(
            label=label or self.label,
            num_frames=self.frames,
            fps=fps,
            inference_rate=self.inference_rate,
            frontend_energy_j=frontend_energy,
            memory_energy_j=memory_energy,
            backend_energy_j=nnx_energy + mc_energy,
            cpu_energy_j=self.cpu_energy_j,
            total_traffic_bytes=int(self.traffic_bytes),
            total_ops=self.ops,
            wall_time_s=wall_time,
        )

    def queueing_estimate(self) -> QueueingEstimate:
        """M/D/1 latency view of this stream's backend load.

        Arrivals are the capture rate actually sustained over the wall
        clock; the deterministic service time is the mean backend latency
        per frame.  Utilisation is ``backend_time / wall`` — at most 1 by
        the wall-clock rule, with 1 meaning compute-bound (no steady-state
        queue, infinite modeled wait).
        """
        if self.frames == 0:
            raise ValueError("no frames recorded; nothing to estimate")
        wall = self.wall_time_s
        arrival_rate = self.frames / wall
        service_time = self.backend_time_s / self.frames
        utilization = self.backend_time_s / wall
        return QueueingEstimate(
            arrival_rate_hz=arrival_rate,
            service_time_s=service_time,
            utilization=utilization,
            mean_wait_s=_md1_wait_s(utilization, service_time),
        )


class SharedSoCPool:
    """Exact aggregate energy for N streams sharing one SoC's static power.

    A lone :class:`CostMeter` prices its stream as if it owned the whole
    modeled SoC, so summing per-stream breakdowns counts the *static* terms
    (NNX idle, MC idle, DRAM background) once per stream — an upper bound
    for a shared-SoC deployment (the historical multiplexer aggregate).
    The pool settles those terms once, over the pool wall clock (streams
    run concurrently, so the interval is the *longest* per-stream wall):

    * dynamic terms (unit-active energy, DRAM traffic, CPU, per-camera
      sensor+ISP frontend) are summed per meter;
    * static terms are charged exactly once on the pool's shared SoC.

    The result is <= the per-stream sum always, and equal for one stream
    (both properties are tested).  Starfish (MobiSys'15) is the paper-side
    precedent for this many-apps-one-SoC accounting.
    """

    def __init__(self, soc: "VisionSoC", *, label: str = "shared-soc") -> None:
        self.soc = soc
        self.label = label
        self._meters: List[CostMeter] = []

    def open_meter(
        self,
        network: "NetworkSpec",
        *,
        extrapolation_on_cpu: bool = False,
        assume_nominal_capture: bool = False,
        label: Optional[str] = None,
    ) -> CostMeter:
        """A per-stream meter on the pool's SoC, aggregated by this pool."""
        meter = CostMeter(
            self.soc,
            network,
            extrapolation_on_cpu=extrapolation_on_cpu,
            assume_nominal_capture=assume_nominal_capture,
            label=label,
        )
        self._meters.append(meter)
        return meter

    def _metered(self) -> List[CostMeter]:
        return [meter for meter in self._meters if meter.frames]

    @property
    def frames(self) -> int:
        return sum(meter.frames for meter in self._meters)

    @property
    def wall_time_s(self) -> float:
        """Pool wall clock: streams run concurrently, so the longest wall."""
        return max((meter.wall_time_s for meter in self._metered()), default=0.0)

    def aggregate(self, label: Optional[str] = None) -> "EnergyBreakdown":
        """Exact shared-SoC energy summary across every metered stream."""
        from .soc import EnergyBreakdown

        metered = self._metered()
        if not metered:
            raise ValueError("no frames recorded; nothing to aggregate")
        wall = self.wall_time_s
        frames = sum(meter.frames for meter in metered)
        inference = sum(meter.inference_frames for meter in metered)

        # Per-camera terms: every stream has its own sensor + ISP capturing
        # for its own wall time.
        frontend = sum(
            meter.soc.config.frontend_power_w * meter.wall_time_s for meter in metered
        )
        # Dynamic backend terms per meter.
        nnx_active = sum(
            meter.soc.nnx.config.active_power_w * meter.nnx_active_s
            for meter in metered
        )
        mc_active = sum(
            meter.soc.motion_controller.config.active_power_w * meter.mc_busy_s
            for meter in metered
        )
        cpu = sum(meter.cpu_energy_j for meter in metered)
        # DRAM dynamic energy = energy_j over a zero-length interval (the
        # background term is interval-proportional and drops out).
        dram_dynamic = sum(
            meter.soc.dram.energy_j(meter.traffic_bytes, 0.0) for meter in metered
        )
        # Shared static terms, charged once on the pool SoC over the pool
        # wall: this is exactly what the per-stream sum over-counts.
        nnx_busy = sum(meter.nnx_active_s for meter in metered)
        mc_busy = sum(meter.mc_busy_s for meter in metered)
        nnx_static = self.soc.nnx.idle_energy_j(max(0.0, wall - nnx_busy))
        mc_static = self.soc.motion_controller.idle_energy_j(max(0.0, wall - mc_busy))
        dram_background = self.soc.dram.energy_j(0, wall)

        return EnergyBreakdown(
            label=label or self.label,
            num_frames=frames,
            fps=frames / wall if wall > 0 else 0.0,
            inference_rate=inference / frames,
            frontend_energy_j=frontend,
            memory_energy_j=dram_dynamic + dram_background,
            backend_energy_j=nnx_active + nnx_static + mc_active + mc_static,
            cpu_energy_j=cpu,
            total_traffic_bytes=int(sum(meter.traffic_bytes for meter in metered)),
            total_ops=sum(meter.ops for meter in metered),
            wall_time_s=wall,
        )

    def queueing_estimate(self) -> QueueingEstimate:
        """M/D/1 view of the shared backend serving every stream's frames.

        Aggregate arrivals over the pool wall against the combined backend
        demand.  Unlike a single meter, utilisation here can exceed 1 —
        N compute-bound streams genuinely overload one shared backend —
        which reports an infinite steady-state wait.
        """
        metered = self._metered()
        if not metered:
            raise ValueError("no frames recorded; nothing to estimate")
        wall = self.wall_time_s
        frames = sum(meter.frames for meter in metered)
        backend_time = sum(meter.backend_time_s for meter in metered)
        arrival_rate = frames / wall
        service_time = backend_time / frames
        utilization = backend_time / wall
        return QueueingEstimate(
            arrival_rate_hz=arrival_rate,
            service_time_s=service_time,
            utilization=utilization,
            mean_wait_s=_md1_wait_s(utilization, service_time),
        )


# ----------------------------------------------------------------------
# Admission control (serving front end)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamDemand:
    """Projected steady-state backend demand of one camera stream.

    What an admission decision knows *before* any frame arrives: the
    stream's capture rate, the extrapolation window its pipeline will run
    (1 I-frame per ``window_size`` frames), and the ROI count its E-frames
    are expected to move.
    """

    fps: float
    window_size: int = 1
    rois: int = 1

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.rois < 0:
            raise ValueError(f"rois must be >= 0, got {self.rois}")


class CapacityModel:
    """Backend capacity budget for stream admission, priced like the meter.

    Uses exactly the per-frame latency constants :class:`CostMeter` prices
    frames with (NNX inference latency for I-frames, MC/CPU extrapolation
    latency for E-frames), so the admission projection and the measured
    :meth:`SharedSoCPool.queueing_estimate` agree by construction.  A
    stream running extrapolation window *W* spends one inference plus
    ``W - 1`` extrapolations every *W* frames, hence a mean backend
    service time of ``(I + (W-1)·E) / W``; at ``fps`` frames per second it
    claims ``fps × service`` of the shared backend.  Admission is the
    M/D/1 steady-state criterion: the projected pool **rejects exactly
    when total utilisation reaches 1** (no steady state, infinite wait).
    """

    def __init__(
        self,
        soc: "VisionSoC",
        network: "NetworkSpec",
        *,
        extrapolation_on_cpu: bool = False,
    ) -> None:
        self.soc = soc
        self.network = network
        self.extrapolation_on_cpu = extrapolation_on_cpu
        self._inference_latency_s = soc.nnx.inference_latency_s(network)
        self._cpu_cost = soc.cpu.extrapolation_cost()

    # -- per-stream terms ----------------------------------------------
    def inference_latency_s(self) -> float:
        return self._inference_latency_s

    def extrapolation_latency_s(self, rois: int = 1) -> float:
        rois = max(0, int(rois))
        if self.extrapolation_on_cpu:
            return self._cpu_cost.latency_s if rois else 0.0
        return self.soc.motion_controller.extrapolation_latency_s(rois)

    def frame_service_time_s(self, window_size: int = 1, rois: int = 1) -> float:
        """Mean backend time per frame at extrapolation window ``W``."""
        window = max(1, int(window_size))
        i_time = self._inference_latency_s
        e_time = self.extrapolation_latency_s(rois)
        return (i_time + (window - 1) * e_time) / window

    def stream_utilization(self, demand: StreamDemand) -> float:
        """Fraction of the shared backend one stream claims."""
        return demand.fps * self.frame_service_time_s(
            demand.window_size, demand.rois
        )

    # -- pool projection -----------------------------------------------
    def projection(self, demands: Sequence[StreamDemand]) -> QueueingEstimate:
        """Projected M/D/1 estimate for a pool serving ``demands``.

        Mirrors :meth:`SharedSoCPool.queueing_estimate` before any frame
        exists: aggregate arrival rate, demand-weighted mean service time,
        summed utilisation (can exceed 1 → ``inf`` wait).
        """
        demands = list(demands)
        arrival_rate = sum(demand.fps for demand in demands)
        if arrival_rate <= 0:
            return QueueingEstimate(
                arrival_rate_hz=0.0,
                service_time_s=0.0,
                utilization=0.0,
                mean_wait_s=0.0,
            )
        utilization = sum(self.stream_utilization(demand) for demand in demands)
        # backend seconds per arriving frame == utilisation / arrival rate.
        service_time = utilization / arrival_rate
        return QueueingEstimate(
            arrival_rate_hz=arrival_rate,
            service_time_s=service_time,
            utilization=utilization,
            mean_wait_s=_md1_wait_s(utilization, service_time),
        )

    def admits(
        self,
        admitted: Sequence[StreamDemand],
        candidate: StreamDemand,
    ) -> bool:
        """Whether the pool stays in steady state with ``candidate`` added.

        Rejects **exactly** when the projected utilisation of the admitted
        set plus the candidate reaches 1 (the M/D/1 wait diverges).
        """
        projected = self.projection([*admitted, candidate])
        return projected.utilization < 1.0
