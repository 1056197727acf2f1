"""Classic ISP pipeline stages (Bayer-domain and RGB-domain).

Each stage is a small, stateless (or nearly stateless) transform modelled
after the blocks shown in the paper's Fig. 2: dead-pixel correction and
demosaicing in the Bayer domain, then colour balance and gamma in the RGB
domain.  Stages report an approximate arithmetic-operation count per pixel so
the SoC model can account for ISP compute.

Every stage optionally quantizes its output to a
:class:`~repro.isp.framebuffer.FixedPointFormat` — the fixed-point datapath
of a real ISP.  With a format configured (the pipeline default), the frames
each stage emits lie on a power-of-two lattice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from . import kernels
from .framebuffer import FixedPointFormat


class ISPStage(ABC):
    """Base class for a single stage of the ISP pipeline."""

    #: Approximate arithmetic operations per output pixel, used for the
    #: compute-overhead accounting in Sec. 5.1.
    ops_per_pixel: float = 1.0

    #: Fixed-point format the stage's output is quantized to; ``None``
    #: keeps the unquantized float output (the legacy behaviour).
    output_format: Optional[FixedPointFormat] = None

    @property
    def name(self) -> str:
        return type(self).__name__

    @abstractmethod
    def process(self, image: np.ndarray, **context) -> np.ndarray:
        """Transform the image, returning a new array."""

    def _finalize(self, image: np.ndarray) -> np.ndarray:
        """Snap the stage output onto the configured fixed-point lattice."""
        if self.output_format is None:
            return image
        return self.output_format.quantize(image)


class DeadPixelCorrection(ISPStage):
    """Replaces dead (stuck-at-zero) Bayer pixels with a neighbourhood mean.

    Dead pixels are detected as pixels that are dramatically darker than the
    average of their same-channel neighbours two pixels away (the nearest
    neighbours of the same Bayer colour).
    """

    ops_per_pixel = 6.0

    def __init__(
        self,
        detection_threshold: float = 40.0,
        output_format: Optional[FixedPointFormat] = None,
    ) -> None:
        self.detection_threshold = detection_threshold
        self.output_format = output_format

    def process(self, image: np.ndarray, **context) -> np.ndarray:
        corrected = image.astype(np.float64).copy()
        neighbour_mean = _same_channel_neighbour_mean(corrected)
        dead = (neighbour_mean - corrected) > self.detection_threshold
        corrected[dead] = neighbour_mean[dead]
        return self._finalize(corrected)


class Demosaic(ISPStage):
    """Bilinear demosaicing from an RGGB Bayer mosaic to full RGB.

    ``ops_per_pixel`` models the arithmetic of the interpolation itself.
    """

    ops_per_pixel = 12.0

    def __init__(self, output_format: Optional[FixedPointFormat] = None) -> None:
        self.output_format = output_format

    def process(self, image: np.ndarray, **context) -> np.ndarray:
        channel_map = context.get("channel_map")
        if channel_map is None:
            raise ValueError("Demosaic requires the sensor channel_map in context")
        return self._finalize(
            kernels.bilinear_demosaic(image.astype(np.float64), channel_map)
        )


class WhiteBalance(ISPStage):
    """Grey-world white balance applied to an RGB image."""

    ops_per_pixel = 3.0

    def __init__(self, output_format: Optional[FixedPointFormat] = None) -> None:
        self.output_format = output_format

    def process(self, image: np.ndarray, **context) -> np.ndarray:
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError("WhiteBalance expects an RGB image")
        balanced = image.astype(np.float64).copy()
        means = balanced.reshape(-1, 3).mean(axis=0)
        overall = means.mean()
        gains = np.where(means > 1e-6, overall / np.maximum(means, 1e-6), 1.0)
        balanced *= gains[None, None, :]
        return self._finalize(np.clip(balanced, 0.0, 255.0))


class GammaCorrection(ISPStage):
    """Gamma curve applied per channel; gamma=1.0 is a no-op."""

    ops_per_pixel = 2.0

    def __init__(
        self, gamma: float = 1.0, output_format: Optional[FixedPointFormat] = None
    ) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma
        self.output_format = output_format

    def process(self, image: np.ndarray, **context) -> np.ndarray:
        if self.gamma == 1.0:
            return self._finalize(image.astype(np.float64))
        normalised = np.clip(image.astype(np.float64) / 255.0, 0.0, 1.0)
        return self._finalize(255.0 * np.power(normalised, self.gamma))


def rgb_to_luma(
    rgb: np.ndarray, output_format: Optional[FixedPointFormat] = None
) -> np.ndarray:
    """BT.601 luma from an RGB image (the representation the backend uses).

    With ``output_format`` the luma plane is quantized onto the fixed-point
    lattice.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("rgb_to_luma expects an (H, W, 3) image")
    weights = np.array([0.299, 0.587, 0.114])
    luma = np.clip(rgb @ weights, 0.0, 255.0)
    if output_format is None:
        return luma
    return output_format.quantize(luma)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _same_channel_neighbour_mean(bayer: np.ndarray) -> np.ndarray:
    """Mean of the four same-colour neighbours (two pixels away) of each pixel."""
    padded = np.pad(bayer, 2, mode="reflect")
    height, width = bayer.shape
    up = padded[0:height, 2 : 2 + width]
    down = padded[4 : 4 + height, 2 : 2 + width]
    left = padded[2 : 2 + height, 0:width]
    right = padded[2 : 2 + height, 4 : 4 + width]
    return (up + down + left + right) / 4.0
