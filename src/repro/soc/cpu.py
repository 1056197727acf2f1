"""Host-CPU model.

Euphrates' design keeps the CPU out of the per-frame loop entirely (task
autonomy, Sec. 2.1/4.1): the CPU only configures the pipeline once.  The CPU
model therefore matters for exactly one experiment — the EW-8@CPU bar of
Fig. 9b, which shows that hosting the extrapolation algorithm in software
negates most of the energy benefit because every E-frame must wake the CPU
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import CPUConfig


@dataclass(frozen=True)
class CPUExtrapolationCost:
    """Cost of performing one E-frame's extrapolation on the CPU."""

    latency_s: float
    energy_j: float


class CPUHost:
    """Energy model of the CPU cluster for software-hosted extrapolation."""

    def __init__(self, config: CPUConfig | None = None) -> None:
        self.config = config or CPUConfig()

    def extrapolation_cost(self) -> CPUExtrapolationCost:
        """Wake the cluster, run the extrapolation code, go back to idle."""
        active_time = self.config.wake_latency_s + self.config.extrapolation_time_s
        energy = self.config.active_power_w * active_time
        return CPUExtrapolationCost(latency_s=active_time, energy_j=energy)
