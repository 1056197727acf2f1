"""Cycle-level performance model of the systolic-array CNN accelerator.

A SCALE-Sim-style analytical model of a weight-stationary systolic array
(the paper open-sourced SCALE-Sim alongside this design; Sec. 5.1).  Each
convolution is tiled so that ``array_rows`` elements of the reduction
dimension (``k*k*in_channels``) and ``array_cols`` output channels are
resident at a time; every output pixel then takes one cycle per tile, plus a
pipeline fill/drain overhead per tile.  Utilisation falls out of the tiling
arithmetic, so small layers (few channels) naturally use the array poorly —
which is why Tiny YOLO achieves a lower effective throughput than its
headline GOPS would suggest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..nn.layers import ConvLayer, FullyConnectedLayer, LayerSpec, PoolLayer
from ..nn.models import NetworkSpec
from .config import NNXConfig


@dataclass(frozen=True)
class LayerTiming:
    """Cycle estimate for one layer on the array."""

    layer_name: str
    cycles: int


class SystolicArrayModel:
    """Analytical latency model for a weight-stationary systolic array."""

    def __init__(self, config: NNXConfig | None = None) -> None:
        self.config = config or NNXConfig()

    # ------------------------------------------------------------------
    # Per-layer timing
    # ------------------------------------------------------------------
    def layer_timing(self, layer: LayerSpec) -> LayerTiming:
        """Cycle estimate for one layer."""
        rows = self.config.array_rows
        cols = self.config.array_cols
        fill_drain = rows + cols

        if isinstance(layer, ConvLayer):
            out_h, out_w, out_c = layer.output_shape
            reduction = layer.in_channels * layer.kernel_size * layer.kernel_size
            tiles_reduction = math.ceil(reduction / rows)
            tiles_channels = math.ceil(out_c / cols)
            output_pixels = out_h * out_w
            cycles = tiles_reduction * tiles_channels * (output_pixels + fill_drain)
            return LayerTiming(layer.name, cycles)

        if isinstance(layer, FullyConnectedLayer):
            # Fully connected layers stream their weight tiles back-to-back,
            # so the pipeline fill/drain is paid once per layer rather than
            # once per tile (candidate batches keep the array busy).
            tiles_reduction = math.ceil(layer.in_features / rows)
            tiles_channels = math.ceil(layer.out_features / cols)
            cycles = tiles_reduction * tiles_channels + fill_drain
            return LayerTiming(layer.name, cycles)

        if isinstance(layer, PoolLayer):
            # Pooling runs on the scalar/vector unit alongside the array; it
            # processes roughly one input element per lane per cycle.
            cycles = math.ceil(layer.ops / max(1, cols))
            return LayerTiming(layer.name, cycles)

        raise TypeError(f"unsupported layer type: {type(layer).__name__}")

    # ------------------------------------------------------------------
    # Network-level timing
    # ------------------------------------------------------------------
    def network_timings(self, network: NetworkSpec) -> List[LayerTiming]:
        """Per-layer timings for a single evaluation of the network."""
        return [self.layer_timing(layer) for layer in network.layers]

    def cycles_per_evaluation(self, network: NetworkSpec) -> int:
        return sum(t.cycles for t in self.network_timings(network))

    def cycles_per_frame(self, network: NetworkSpec) -> int:
        return self.cycles_per_evaluation(network) * network.evaluations_per_frame

    def latency_per_frame_s(self, network: NetworkSpec) -> float:
        """Wall-clock time of one full-frame inference pass."""
        return self.cycles_per_frame(network) / self.config.clock_hz
