"""SoC-level energy / performance model of the continuous-vision pipeline.

This is the top of the hardware-modeling stack: given a CNN workload and
either an analytic I-frame/E-frame schedule or the per-frame telemetry of an
actual Euphrates pipeline run, it computes the frame rate the vision
subsystem achieves and the energy split between the frontend (sensor + ISP),
main memory, and backend (NNX + motion controller, plus the CPU when
extrapolation is hosted in software).  These are exactly the quantities
plotted in Figs. 9b, 9c and 10b of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.types import FrameKind, FrameTelemetry, SequenceResult
from ..nn.models import NetworkSpec
from .config import SoCConfig
from .cpu import CPUHost
from .dram import DRAMModel
from .motion_controller import MotionControllerIP
from .nnx import NNXAccelerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .frame_cost import CostMeter


#: Bytes per pixel of the unpacked RAW Bayer data the sensor streams in.
RAW_BYTES_PER_PIXEL = 2
#: Bytes per pixel of the processed RGB/YUV frame the ISP commits to DRAM.
PROCESSED_BYTES_PER_PIXEL = 3


@dataclass(frozen=True)
class FrameSchedule:
    """How the frames of a workload are split between inference and extrapolation."""

    num_frames: int
    inference_frames: int
    extrapolation_frames: int
    #: Average number of tracked/detected ROIs per frame (drives MC cost).
    rois_per_frame: float = 1.0
    #: When True, the extrapolation algorithm runs on the CPU instead of the
    #: motion-controller IP (the EW-8@CPU configuration of Fig. 9b).
    extrapolation_on_cpu: bool = False

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.inference_frames < 0 or self.extrapolation_frames < 0:
            raise ValueError("frame counts must be non-negative")
        if self.inference_frames + self.extrapolation_frames != self.num_frames:
            raise ValueError(
                "inference_frames + extrapolation_frames must equal num_frames"
            )

    @property
    def inference_rate(self) -> float:
        """Fraction of frames that trigger a CNN inference (Fig. 10b, right axis)."""
        return self.inference_frames / self.num_frames

    @classmethod
    def constant_ew(
        cls,
        extrapolation_window: int,
        num_frames: int = 6000,
        rois_per_frame: float = 1.0,
        extrapolation_on_cpu: bool = False,
    ) -> "FrameSchedule":
        """Schedule for constant-EW operation.

        ``extrapolation_window`` follows the paper's EW-N naming: EW-N means
        one inference every N frames (N-1 extrapolations in between), so
        EW-1 is the conventional inference-every-frame baseline.
        """
        if extrapolation_window < 1:
            raise ValueError("extrapolation_window must be >= 1")
        inference = (num_frames + extrapolation_window - 1) // extrapolation_window
        return cls(
            num_frames=num_frames,
            inference_frames=inference,
            extrapolation_frames=num_frames - inference,
            rois_per_frame=rois_per_frame,
            extrapolation_on_cpu=extrapolation_on_cpu,
        )


@dataclass
class EnergyBreakdown:
    """Energy/performance summary of running a workload on the vision SoC."""

    label: str
    num_frames: int
    fps: float
    inference_rate: float
    frontend_energy_j: float
    memory_energy_j: float
    backend_energy_j: float
    cpu_energy_j: float
    total_traffic_bytes: int
    total_ops: float
    wall_time_s: float

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        return (
            self.frontend_energy_j
            + self.memory_energy_j
            + self.backend_energy_j
            + self.cpu_energy_j
        )

    @property
    def energy_per_frame_j(self) -> float:
        return self.total_energy_j / self.num_frames

    @property
    def frontend_energy_per_frame_j(self) -> float:
        return self.frontend_energy_j / self.num_frames

    @property
    def memory_energy_per_frame_j(self) -> float:
        return self.memory_energy_j / self.num_frames

    @property
    def backend_energy_per_frame_j(self) -> float:
        return (self.backend_energy_j + self.cpu_energy_j) / self.num_frames

    @property
    def ops_per_frame(self) -> float:
        return self.total_ops / self.num_frames

    @property
    def traffic_per_frame_bytes(self) -> float:
        return self.total_traffic_bytes / self.num_frames

    def normalized_to(self, baseline: "EnergyBreakdown") -> float:
        """Per-frame energy relative to a baseline configuration."""
        return self.energy_per_frame_j / baseline.energy_per_frame_j

    def energy_saving_vs(self, baseline: "EnergyBreakdown") -> float:
        """Fractional per-frame energy saving relative to a baseline."""
        return 1.0 - self.normalized_to(baseline)


class VisionSoC:
    """The co-designed vision subsystem: frontend, backend, memory, host CPU."""

    def __init__(self, config: SoCConfig | None = None) -> None:
        self.config = config or SoCConfig()
        self.nnx = NNXAccelerator(self.config.nnx)
        self.motion_controller = MotionControllerIP(self.config.motion_controller)
        self.cpu = CPUHost(self.config.cpu)
        self.dram = DRAMModel(self.config.dram)

    # ------------------------------------------------------------------
    # Per-frame building blocks
    # ------------------------------------------------------------------
    @property
    def frame_pixels(self) -> int:
        return self.config.frame_width * self.config.frame_height

    def frontend_traffic_bytes_per_frame(self, pixels: Optional[int] = None) -> int:
        """DRAM traffic the frontend generates for every captured frame.

        RAW Bayer write by the sensor interface, RAW read by the ISP, the
        processed RGB/YUV frame write, and a preview/display read of the
        processed frame — roughly 21 MB per 1080p frame, which together with
        the backend's E-frame metadata accesses reproduces the paper's
        ~23 MB-per-E-frame figure.  ``pixels`` prices a measured frame of a
        different size; ``None`` uses the nominal capture setting.
        """
        pixels = self.frame_pixels if pixels is None else int(pixels)
        raw = pixels * RAW_BYTES_PER_PIXEL
        processed = pixels * PROCESSED_BYTES_PER_PIXEL
        return raw + raw + processed + processed

    def motion_metadata_bytes_per_frame(
        self, macroblock_size: int = 16, pixels: Optional[int] = None
    ) -> int:
        """Size of the per-frame MV metadata Euphrates appends (Sec. 4.2).

        With ``pixels`` the macroblock grid is approximated from the pixel
        count alone (measured frames report size, not geometry); the
        nominal path keeps the exact width/height grid.
        """
        if pixels is not None and pixels != self.frame_pixels:
            blocks = -(-int(pixels) // (macroblock_size * macroblock_size))
            return blocks * 2
        cols = -(-self.config.frame_width // macroblock_size)
        rows = -(-self.config.frame_height // macroblock_size)
        return rows * cols * 2  # 1 byte MV + 1 byte confidence per macroblock

    def network_input_bytes(self, network: NetworkSpec) -> int:
        """Bytes of pixel data one inference reads from the frame buffer."""
        height, width, channels = network.input_shape
        return height * width * channels * network.bytes_per_value

    # ------------------------------------------------------------------
    # Main evaluation entry point
    # ------------------------------------------------------------------
    def open_meter(
        self,
        network: NetworkSpec,
        *,
        extrapolation_on_cpu: bool = False,
        assume_nominal_capture: bool = False,
        label: Optional[str] = None,
    ) -> "CostMeter":
        """A fresh per-frame cost meter for ``network`` on this SoC.

        The meter is the single costing core: the live pipeline folds its
        recorded :class:`~repro.core.types.FrameTelemetry` events through
        it, and :meth:`evaluate` folds an aggregate schedule through the
        very same pricing.  ``extrapolation_on_cpu`` prices E-frames on
        the CPU instead of the motion controller (the EW-N@CPU
        configurations of Fig. 9b); ``assume_nominal_capture`` prices
        every event at the SoC's nominal capture setting so small
        synthetic runs produce tables comparable with the analytic model.
        Metering is observe-only: a meter never changes pipeline outputs.

        One meter prices one stream.  To meter N concurrent streams on a
        *shared* SoC — static power settled once, not N times — open the
        meters through :meth:`open_pool` /
        :meth:`~repro.soc.frame_cost.SharedSoCPool.open_meter` instead.
        """
        from .frame_cost import CostMeter

        return CostMeter(
            self,
            network,
            extrapolation_on_cpu=extrapolation_on_cpu,
            assume_nominal_capture=assume_nominal_capture,
            label=label,
        )

    def open_pool(self, *, label: str = "shared-soc"):
        """A :class:`~repro.soc.frame_cost.SharedSoCPool` on this SoC.

        N concurrent streams metered through one pool settle the static
        power terms (NNX idle, MC idle, DRAM background) exactly once —
        the exact shared-SoC aggregate, vs. the per-stream-sum upper bound.
        """
        from .frame_cost import SharedSoCPool

        return SharedSoCPool(self, label=label)

    def evaluate(
        self,
        network: NetworkSpec,
        schedule: FrameSchedule,
        label: Optional[str] = None,
    ) -> EnergyBreakdown:
        """Energy/performance of running ``schedule`` with ``network`` I-frames.

        Implemented as a fold of per-frame events over :meth:`open_meter`
        (one synthetic event per schedule bucket, with a count multiplier),
        so the analytic path prices frames exactly like the measured
        telemetry path does.
        """
        meter = self.open_meter(
            network, extrapolation_on_cpu=schedule.extrapolation_on_cpu
        )
        rois = int(round(schedule.rois_per_frame))
        if schedule.inference_frames:
            meter.record(
                FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE, rois=rois),
                count=schedule.inference_frames,
            )
        if schedule.extrapolation_frames:
            meter.record(
                FrameTelemetry(frame_index=0, kind=FrameKind.EXTRAPOLATION, rois=rois),
                count=schedule.extrapolation_frames,
            )
        return meter.breakdown(
            label or f"{network.name}/{schedule.inference_rate:.2f}"
        )

    # ------------------------------------------------------------------
    # Convenience wrappers used by the benchmark harness
    # ------------------------------------------------------------------
    def evaluate_constant_ew(
        self,
        network: NetworkSpec,
        extrapolation_window: int,
        num_frames: int = 6000,
        rois_per_frame: float = 1.0,
        extrapolation_on_cpu: bool = False,
        label: Optional[str] = None,
    ) -> EnergyBreakdown:
        """Evaluate a constant extrapolation window (EW-N) configuration."""
        schedule = FrameSchedule.constant_ew(
            extrapolation_window,
            num_frames=num_frames,
            rois_per_frame=rois_per_frame,
            extrapolation_on_cpu=extrapolation_on_cpu,
        )
        default_label = (
            network.name if extrapolation_window == 1 else f"EW-{extrapolation_window}"
        )
        return self.evaluate(network, schedule, label=label or default_label)

    def evaluate_results(
        self,
        network: NetworkSpec,
        results: Sequence[SequenceResult],
        extrapolation_on_cpu: bool = False,
        label: Optional[str] = None,
    ) -> EnergyBreakdown:
        """Energy of a pipeline run, pricing every frame it recorded.

        Each result's :class:`~repro.core.types.FrameTelemetry` events (true
        frame kind, true ROI count) are folded through one
        :meth:`open_meter`.  Events are priced at the nominal capture
        setting so measured and analytic tables are directly comparable:
        what is measured is the schedule and the ROI counts, not the
        synthetic frames' geometry.  Results that carry no telemetry raise
        :class:`ValueError`.
        """
        label = label or network.name
        meter = self.open_meter(
            network,
            extrapolation_on_cpu=extrapolation_on_cpu,
            assume_nominal_capture=True,
            label=label,
        )
        recorded = sum(meter.record_all(result.telemetry) for result in results)
        if recorded == 0:
            raise ValueError(f"no telemetry recorded for '{label}'")
        return meter.breakdown()
