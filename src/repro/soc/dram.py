"""DRAM energy model (DRAMPower-style accounting).

The model splits DRAM energy into a background component (standby +
refresh, paid for as long as the system is on) and a dynamic component
proportional to the bytes transferred.  The constants are calibrated so
that the capture-only 1080p60 workload lands near the ~230 mW measured on
the Jetson TX2 DDR power rail (Sec. 5.1).
"""

from __future__ import annotations

from .config import DRAMConfig


class DRAMModel:
    """Energy model of the LPDDR main memory."""

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()

    def energy_j(self, traffic_bytes: int, duration_s: float) -> float:
        """Total DRAM energy for ``traffic_bytes`` moved over ``duration_s``."""
        if traffic_bytes < 0:
            raise ValueError("traffic_bytes must be non-negative")
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        background = self.config.background_power_w * duration_s
        dynamic = traffic_bytes * self.config.energy_per_byte_pj * 1e-12
        return background + dynamic
