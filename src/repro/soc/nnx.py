"""The CNN accelerator (NNX) IP: latency, energy and DRAM-traffic model.

The NNX is deliberately left unmodified by Euphrates (design principle 2 in
Sec. 4.1): the motion controller drives it through memory-mapped registers,
and all Euphrates-specific logic lives outside.  This module therefore only
models the cost of running a given network once, which the SoC-level model
multiplies by the I-frame rate.
"""

from __future__ import annotations

import math

from ..nn.layers import ConvLayer, FullyConnectedLayer
from ..nn.models import NetworkSpec
from .config import NNXConfig
from .systolic import SystolicArrayModel


class NNXAccelerator:
    """Performance/energy/traffic model of the CNN accelerator IP."""

    def __init__(self, config: NNXConfig | None = None) -> None:
        self.config = config or NNXConfig()
        self.array = SystolicArrayModel(self.config)

    # ------------------------------------------------------------------
    # Latency and energy
    # ------------------------------------------------------------------
    def inference_latency_s(self, network: NetworkSpec) -> float:
        """Latency of one full-frame inference (all evaluations)."""
        return self.array.latency_per_frame_s(network)

    def idle_energy_j(self, duration_s: float) -> float:
        """Leakage energy while the accelerator is clock-gated."""
        return self.config.idle_power_w * duration_s

    # ------------------------------------------------------------------
    # DRAM traffic
    # ------------------------------------------------------------------
    def inference_traffic_parts(
        self, network: NetworkSpec, input_frame_bytes: int
    ) -> tuple:
        """The three DRAM-traffic components of one inference.

        Returns ``(input_bytes, weight_bytes, activation_bytes)``: the input
        frame pixels read from the frame buffer, the network weights
        streamed in (the 1.5 MB SRAM cannot hold a full mobile detector),
        and intermediate feature maps spilled to DRAM whenever a layer's
        working set exceeds the on-chip SRAM.  The spill factor is
        calibrated so a YOLOv2 I-frame moves ~646 MB, matching the paper's
        measurement (Sec. 6.1).
        """
        weight_traffic = network.weight_bytes
        activation_traffic = 0.0
        sram = self.config.sram_bytes
        cols = self.config.array_cols
        per_value = network.bytes_per_value
        input_h, input_w, input_c = network.input_shape
        previous_bytes = input_h * input_w * input_c * per_value
        for layer in network.layers:
            output_bytes = layer.output_activations * per_value
            if isinstance(layer, (ConvLayer, FullyConnectedLayer)):
                input_bytes = previous_bytes
                working_set = input_bytes + output_bytes + layer.parameters * per_value
                if working_set > sram:
                    # The input feature map is re-fetched once per
                    # output-channel tile, and the spilled traffic is scaled
                    # by the calibrated spill factor (partial sums, halo
                    # re-reads, double buffering).
                    rereads = math.ceil(layer.output_shape[2] / cols)
                    activation_traffic += (
                        output_bytes + input_bytes * rereads
                    ) * self.config.activation_spill_factor
                else:
                    # Fits on chip: written once, read back once by the next layer.
                    activation_traffic += 2.0 * output_bytes
            else:
                activation_traffic += output_bytes
            previous_bytes = output_bytes
        activation_traffic *= network.evaluations_per_frame
        return input_frame_bytes, weight_traffic, activation_traffic

    @staticmethod
    def batched_traffic_bytes(
        input_traffic: int,
        weight_traffic: int,
        activation_traffic: float,
        batch_size: int = 1,
    ) -> int:
        """Per-frame traffic with the weight stream amortised over a batch.

        Input pixels and spilled activations are inherently per-frame; only
        the weights stay resident in the double-buffered SRAM across a
        batch, so they are the only amortisable component.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return int(input_traffic + weight_traffic / batch_size + activation_traffic)
