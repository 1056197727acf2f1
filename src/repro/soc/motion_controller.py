"""The motion-controller IP (Sec. 4.3).

A micro-controller-class IP with a 4-wide SIMD datapath, an 8 KB MV SRAM and
a programmable sequencer.  It plays the master role in the vision backend:
it reads the MV metadata from the frame buffer, extrapolates ROIs on
E-frames, programs the NNX's memory-mapped registers for I-frames, receives
the inference results, and implements the adaptive-EW control loop — all
without interrupting the CPU (task autonomy).
"""

from __future__ import annotations

from .config import MotionControllerConfig


#: Bytes written back per ROI result (coordinates, label, score, object id).
RESULT_BYTES_PER_ROI = 16


class MotionControllerIP:
    """Latency/energy/traffic model of the Euphrates motion controller."""

    def __init__(self, config: MotionControllerConfig | None = None) -> None:
        self.config = config or MotionControllerConfig()

    # ------------------------------------------------------------------
    # Compute model
    # ------------------------------------------------------------------
    def extrapolation_ops(self, num_rois: int) -> float:
        """Fixed-point operations to extrapolate ``num_rois`` ROIs.

        The paper estimates ~10 K 4-bit fixed-point operations per typical
        ROI (Sec. 3.2) — several orders of magnitude below a CNN inference.
        """
        return self.config.ops_per_roi * max(0, num_rois)

    def extrapolation_latency_s(self, num_rois: int) -> float:
        """Time to extrapolate all ROIs of one E-frame."""
        ops = self.extrapolation_ops(num_rois)
        ops_per_cycle = self.config.simd_lanes
        cycles = ops / max(1, ops_per_cycle)
        return cycles / self.config.clock_hz

    # ------------------------------------------------------------------
    # Energy and traffic
    # ------------------------------------------------------------------
    def idle_energy_j(self, duration_s: float) -> float:
        """Energy while the sequencer waits between extrapolations."""
        return self.config.idle_power_w * duration_s

    def extrapolation_traffic_bytes(self, motion_metadata_bytes: int, num_rois: int) -> int:
        """DRAM traffic of one E-frame: MV metadata in, ROI results out.

        An empty scene (``num_rois == 0``) reads the metadata but writes no
        ROI results — true ROI counts are priced, with no phantom floor.
        """
        return int(motion_metadata_bytes + RESULT_BYTES_PER_ROI * max(0, num_rois))
