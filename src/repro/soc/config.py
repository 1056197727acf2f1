"""SoC component configurations (the paper's Table 1, plus calibration knobs).

Component power figures come from the paper's measurements and RTL results
(Sec. 5.1): the AR1335 sensor datasheet (180 mW at 1080p60), the Jetson TX2
ISP rail (153 mW + 2.5 % motion-estimation overhead), the 16 nm synthesis of
the 24x24 systolic NNX (651 mW, 1.58 mm^2, 1.77 TOPS/W) and of the motion
controller (2.2 mW, 0.035 mm^2), and the TX2 DDR rail (~230 mW at 1080p60
capture).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..isp.pipeline import ISPConfig
from ..isp.sensor import SensorConfig


@dataclass(frozen=True)
class NNXConfig:
    """The CNN accelerator (NNX): a TPU-like systolic array, mobile sized."""

    array_rows: int = 24
    array_cols: int = 24
    clock_hz: float = 1.0e9
    #: Unified, double-buffered weight/activation SRAM (Table 1: 1.5 MB).
    sram_bytes: int = 1_572_864
    dma_channels: int = 3
    axi_width_bits: int = 128
    #: Post-layout power and area in 16 nm (Sec. 5.1).
    active_power_w: float = 0.651
    idle_power_w: float = 0.003
    area_mm2: float = 1.58
    #: Calibration knob: multiplier on the activation traffic of layers whose
    #: working set spills out of the on-chip SRAM, capturing partial-sum and
    #: halo re-reads that the analytical tiling model does not enumerate.
    #: Calibrated so a YOLOv2 inference moves ~646 MB of DRAM traffic, the
    #: paper's measured per-I-frame figure (Sec. 6.1).
    activation_spill_factor: float = 3.6

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def peak_tops(self) -> float:
        """Peak throughput in Tera-ops/s (1 MAC = 2 ops)."""
        return 2.0 * self.peak_macs_per_cycle * self.clock_hz / 1e12

    @property
    def tops_per_watt(self) -> float:
        return self.peak_tops / self.active_power_w


@dataclass(frozen=True)
class MotionControllerConfig:
    """The Euphrates motion-controller IP (Sec. 4.3)."""

    simd_lanes: int = 4
    clock_hz: float = 100e6
    #: Local SRAM sized for one 1080p frame of 16x16-macroblock MVs (8 KB).
    sram_bytes: int = 8192
    dma_channels: int = 3
    axi_width_bits: int = 128
    active_power_w: float = 0.0022
    #: Power while the SIMD datapath idles between extrapolations.  The
    #: cost model splits MC energy into active-extrapolation time and idle
    #: sequencing time explicitly; the default matches the paper's
    #: always-on 2.2 mW (the MC masters the backend on I- and E-frames
    #: alike), and lowering it models a clock-gated datapath.
    idle_power_w: float = 0.0022
    area_mm2: float = 0.035
    #: Designed throughput target: 10 ROIs per frame at 60 FPS (Sec. 5.1).
    max_rois_per_frame: int = 10
    #: Fixed-point operations per extrapolated ROI (Sec. 3.2: ~10 K ops for a
    #: typical 100x50 ROI).
    ops_per_roi: float = 10_000.0


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory model (DRAMPower-style energy accounting)."""

    channels: int = 4
    interface_bits: int = 128
    capacity_gb: int = 8
    peak_bandwidth_gb_s: float = 25.6
    #: Standby + refresh power of the DRAM devices.
    background_power_w: float = 0.140
    #: Energy per byte transferred (activate + read/write + IO), calibrated so
    #: the 1080p60 capture-only workload lands near the 230 mW measured on the
    #: Jetson TX2 DDR rail.
    energy_per_byte_pj: float = 45.0


@dataclass(frozen=True)
class CPUConfig:
    """Host CPU model, used only when extrapolation runs in software."""

    #: Active power of the CPU cluster while awake (Sec. 2.1: >1 W is easy).
    active_power_w: float = 2.5
    #: Time to wake the cluster from idle and schedule the vision task.
    wake_latency_s: float = 0.0010
    #: Software motion-extrapolation time per frame (OpenCV-class code).
    extrapolation_time_s: float = 0.0025


@dataclass(frozen=True)
class SoCConfig:
    """Aggregate configuration of the modeled vision SoC (Table 1)."""

    sensor: SensorConfig = field(default_factory=SensorConfig)
    isp: ISPConfig = field(default_factory=ISPConfig)
    nnx: NNXConfig = field(default_factory=NNXConfig)
    motion_controller: MotionControllerConfig = field(default_factory=MotionControllerConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    #: Nominal capture setting (Table 1 / Sec. 5.1).
    frame_width: int = 1920
    frame_height: int = 1080
    frame_rate: float = 60.0

    @property
    def frame_period_s(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def frontend_power_w(self) -> float:
        """Sensor + ISP power while capturing at the nominal setting."""
        return self.sensor.active_power_w + self.isp.total_power_w

    def table1_rows(self) -> List[Tuple[str, str]]:
        """The modeled-SoC summary table (paper Table 1)."""
        nnx = self.nnx
        mc = self.motion_controller
        dram = self.dram
        return [
            (
                "Camera Sensor",
                f"{self.sensor.name}, {self.frame_width//1}x{self.frame_height} "
                f"@ {self.frame_rate:.0f} FPS, {self.sensor.active_power_w*1e3:.0f} mW",
            ),
            (
                "ISP",
                f"{self.isp.clock_hz/1e6:.0f} MHz, 1080p @ {self.frame_rate:.0f} FPS, "
                f"{self.isp.total_power_w*1e3:.0f} mW",
            ),
            (
                "NN Accelerator (NNX)",
                f"{nnx.array_rows}x{nnx.array_cols} systolic MAC array, "
                f"{nnx.sram_bytes/1048576:.1f} MB double-buffered local SRAM, "
                f"{nnx.dma_channels}-channel {nnx.axi_width_bits}-bit AXI4 DMA, "
                f"{nnx.peak_tops:.2f} TOPS peak, {nnx.active_power_w*1e3:.0f} mW",
            ),
            (
                "Motion Controller (MC)",
                f"{mc.simd_lanes}-wide SIMD datapath, {mc.sram_bytes//1024} KB local SRAM, "
                f"{mc.dma_channels}-channel {mc.axi_width_bits}-bit AXI4 DMA, "
                f"{mc.active_power_w*1e3:.1f} mW",
            ),
            (
                "DRAM",
                f"{dram.channels}-channel LPDDR3, {dram.peak_bandwidth_gb_s:.1f} GB/s peak BW, "
                f"{dram.capacity_gb} GB",
            ),
        ]


# ----------------------------------------------------------------------
# Named configurations (the CLI's --soc-config surface)
# ----------------------------------------------------------------------
#: Capture settings selectable by name.  Component models (NNX, MC, DRAM,
#: CPU) stay at their Table 1 calibration; only the capture geometry and
#: frame rate vary — the knobs a product would actually configure.
SOC_CAPTURE_PRESETS: Dict[str, Tuple[int, int, float]] = {
    "default": (1920, 1080, 60.0),
    "1080p60": (1920, 1080, 60.0),
    "1080p30": (1920, 1080, 30.0),
    "720p60": (1280, 720, 60.0),
    "720p30": (1280, 720, 30.0),
    "4k30": (3840, 2160, 30.0),
}

#: ``WIDTHxHEIGHT@FPS`` spelling for captures not covered by a preset.
_CAPTURE_PATTERN = re.compile(r"^(\d+)x(\d+)@(\d+(?:\.\d+)?)$")


def resolve_soc_config(name: str) -> SoCConfig:
    """Build the :class:`SoCConfig` a ``--soc-config`` value names.

    Accepts a preset name (see :data:`SOC_CAPTURE_PRESETS`) or an explicit
    ``WIDTHxHEIGHT@FPS`` capture spelling (e.g. ``1280x720@30``); unknown
    names raise :class:`ValueError` listing the presets.
    """
    key = name.strip().lower()
    if key in SOC_CAPTURE_PRESETS:
        width, height, fps = SOC_CAPTURE_PRESETS[key]
    else:
        match = _CAPTURE_PATTERN.match(key)
        if match is None:
            presets = ", ".join(sorted(SOC_CAPTURE_PRESETS))
            raise ValueError(
                f"unknown SoC config '{name}' (expected one of {presets}, "
                "or WIDTHxHEIGHT@FPS)"
            )
        width, height = int(match.group(1)), int(match.group(2))
        fps = float(match.group(3))
        if width <= 0 or height <= 0 or fps <= 0:
            raise ValueError(f"SoC config '{name}' must be positive")
    return replace(
        SoCConfig(), frame_width=width, frame_height=height, frame_rate=fps
    )


# ----------------------------------------------------------------------
# Tuned pipeline-spec presets (the autotuner's best-found configurations)
# ----------------------------------------------------------------------
#: Named :class:`~repro.core.spec.PipelineSpec` keyword bundles found
#: Pareto-optimal by the design-space autotuner (``python -m repro.harness
#: tune``).  Build one with ``PipelineSpec.from_preset(name)`` or select it
#: on any harness command with ``--spec-preset NAME``; EXPERIMENTS.md
#: records the frontier each preset was picked from and the exact command
#: that reproduces it.
TUNED_SPEC_PRESETS: Dict[str, Dict[str, object]] = {
    # The measured frontier's adaptive point: adaptive EW with a 4x4 sub-ROI
    # extrapolation grid tracks at every-frame-inference accuracy for ~5%
    # less modeled energy/frame than the default spec, which it dominates
    # outright (motion-quality knobs are free — block matching rides the
    # ISP — so the controller holds the window open longer on easy scenes).
    # See "Design-space autotuner" in EXPERIMENTS.md for the frontier this
    # point was selected from.
    "tuned-ci-energy": {
        "extrapolation_window": "adaptive",
        "sub_roi_grid": (4, 4),
    },
}
