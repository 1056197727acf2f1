"""Camera sensor model.

Models an AR1335-class mobile image sensor (Sec. 5.1): it converts a scene
luma image into a Bayer-mosaiced RAW capture with shot/read noise and a fixed
population of dead pixels, and carries the datasheet power figure used by the
SoC energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class SensorConfig:
    """Static configuration of the modeled image sensor."""

    name: str = "AR1335"
    #: Capture resolution; the paper's nominal setting is 1920x1080 at 60 FPS.
    width: int = 1920
    height: int = 1080
    #: Datasheet active power at 1080p60, in watts (Sec. 5.1).
    active_power_w: float = 0.180
    #: Standard deviation of read noise in digital numbers.
    read_noise: float = 1.5
    #: Scale of photon shot noise (proportional to sqrt(signal)).
    shot_noise_scale: float = 0.08
    #: Fraction of pixels that are permanently dead (stuck at zero).
    dead_pixel_fraction: float = 2e-4

    @property
    def pixels_per_frame(self) -> int:
        return self.width * self.height


@dataclass
class RawFrame:
    """A Bayer-mosaiced RAW capture plus its capture metadata."""

    bayer: np.ndarray
    frame_index: int
    #: RGGB channel identity per pixel, encoded as 0=R, 1=G, 2=B.
    channel_map: np.ndarray
    exposure_gain: float = 1.0

    @property
    def height(self) -> int:
        return int(self.bayer.shape[0])

    @property
    def width(self) -> int:
        return int(self.bayer.shape[1])


def bayer_channel_map(height: int, width: int) -> np.ndarray:
    """RGGB channel layout: 0=R, 1=G, 2=B, repeated in 2x2 tiles."""
    channel = np.empty((height, width), dtype=np.uint8)
    channel[0::2, 0::2] = 0  # R
    channel[0::2, 1::2] = 1  # G
    channel[1::2, 0::2] = 1  # G
    channel[1::2, 1::2] = 2  # B
    return channel


class CameraSensor:
    """Converts scene luma into noisy Bayer RAW captures.

    The synthetic video substrate produces luma frames; a real sensor sees a
    colour scene.  We synthesise plausible colour by applying fixed per-channel
    gains to the luma before mosaicing, which is enough for the downstream
    demosaic / white-balance stages to have real work to do.
    """

    #: Per-channel gains used to synthesise colour from scene luma.
    _CHANNEL_GAINS = (0.92, 1.0, 0.82)

    def __init__(self, config: SensorConfig | None = None, seed: int = 0) -> None:
        self.config = config or SensorConfig()
        self._rng = np.random.default_rng(seed)
        self._dead_pixels: Tuple[np.ndarray, np.ndarray] | None = None
        #: Number of frames captured so far.
        self.frames_captured = 0

    def capture(self, scene_luma: np.ndarray, frame_index: int) -> RawFrame:
        """Capture one RAW frame of the given scene.

        ``scene_luma`` may have any resolution; the sensor's nominal
        resolution only matters for power/traffic accounting, so the capture
        is performed at the scene's native size.
        """
        scene = np.asarray(scene_luma, dtype=np.float64)
        if scene.ndim != 2:
            raise ValueError("scene_luma must be a 2-D luma image")
        height, width = scene.shape
        channel_map = bayer_channel_map(height, width)

        gains = np.asarray(self._CHANNEL_GAINS)[channel_map]
        signal = scene * gains

        shot_noise = self._rng.normal(
            0.0, self.config.shot_noise_scale * np.sqrt(np.maximum(signal, 0.0))
        )
        read_noise = self._rng.normal(0.0, self.config.read_noise, size=signal.shape)
        noisy = signal + shot_noise + read_noise

        noisy = self._apply_dead_pixels(noisy)
        bayer = np.clip(noisy, 0.0, 255.0)

        self.frames_captured += 1
        return RawFrame(bayer=bayer, frame_index=frame_index, channel_map=channel_map)

    def _apply_dead_pixels(self, image: np.ndarray) -> np.ndarray:
        """Zero out a fixed, per-sensor population of dead pixels."""
        if self.config.dead_pixel_fraction <= 0:
            return image
        if self._dead_pixels is None or self._dead_pixels[0].shape[0] == 0:
            total = image.size
            count = max(1, int(total * self.config.dead_pixel_fraction))
            flat = self._rng.choice(total, size=count, replace=False)
            self._dead_pixels = np.unravel_index(flat, image.shape)
        rows, cols = self._dead_pixels
        # Dead-pixel positions are defined for the first-seen resolution;
        # guard against scenes of a different size.
        valid = (rows < image.shape[0]) & (cols < image.shape[1])
        image[rows[valid], cols[valid]] = 0.0
        return image

    @property
    def dead_pixel_coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row/column indices of the sensor's dead pixels (for the ISP)."""
        if self._dead_pixels is None:
            return (np.empty(0, dtype=int), np.empty(0, dtype=int))
        return self._dead_pixels
