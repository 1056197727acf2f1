"""Object motion models for the synthetic video generator.

A trajectory maps a frame index to an object-center position (in pixels).
Different trajectory families exercise different parts of the Euphrates
algorithm: linear motion is the easy case for motion extrapolation,
sinusoidal and bouncing motion introduce acceleration that accumulates
extrapolation error across large extrapolation windows, and composite
trajectories model deformable parts moving relative to a common root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Tuple


class Trajectory(Protocol):
    """Maps a frame index to an ``(x, y)`` center position in pixels."""

    def position(self, frame_index: int) -> Tuple[float, float]:
        """Return the object center at ``frame_index``."""
        ...


@dataclass(frozen=True)
class LinearTrajectory:
    """Constant-velocity motion: the best case for motion extrapolation."""

    start_x: float
    start_y: float
    velocity_x: float
    velocity_y: float

    def position(self, frame_index: int) -> Tuple[float, float]:
        return (
            self.start_x + self.velocity_x * frame_index,
            self.start_y + self.velocity_y * frame_index,
        )


@dataclass(frozen=True)
class SinusoidalTrajectory:
    """Oscillating motion superimposed on a linear drift.

    The direction changes produce the acceleration errors that make large
    extrapolation windows lose accuracy (Sec. 3.3).
    """

    start_x: float
    start_y: float
    drift_x: float = 0.0
    drift_y: float = 0.0
    amplitude_x: float = 10.0
    amplitude_y: float = 6.0
    period_frames: float = 40.0
    phase: float = 0.0

    def position(self, frame_index: int) -> Tuple[float, float]:
        angle = 2.0 * math.pi * frame_index / self.period_frames + self.phase
        return (
            self.start_x + self.drift_x * frame_index + self.amplitude_x * math.sin(angle),
            self.start_y + self.drift_y * frame_index + self.amplitude_y * math.cos(angle),
        )


@dataclass(frozen=True)
class BouncingTrajectory:
    """Constant-speed motion that reflects off the frame boundary.

    Keeps objects inside the frame for arbitrarily long sequences while still
    providing abrupt direction changes at the walls.
    """

    start_x: float
    start_y: float
    velocity_x: float
    velocity_y: float
    frame_width: float
    frame_height: float
    margin: float = 0.0

    def position(self, frame_index: int) -> Tuple[float, float]:
        return (
            self._reflect(
                self.start_x + self.velocity_x * frame_index,
                self.margin,
                self.frame_width - self.margin,
            ),
            self._reflect(
                self.start_y + self.velocity_y * frame_index,
                self.margin,
                self.frame_height - self.margin,
            ),
        )

    @staticmethod
    def _reflect(value: float, low: float, high: float) -> float:
        """Fold ``value`` into ``[low, high]`` by reflecting at the bounds."""
        if high <= low:
            return low
        span = high - low
        # Map into a 2*span-periodic triangle wave.
        offset = (value - low) % (2.0 * span)
        if offset > span:
            offset = 2.0 * span - offset
        return low + offset


@dataclass(frozen=True)
class CompositeTrajectory:
    """A trajectory defined relative to a parent trajectory.

    Used for deformable object parts (a limb oscillating around a torso): the
    part follows the parent's global motion plus its own local oscillation.
    """

    parent: Trajectory
    offset_x: float = 0.0
    offset_y: float = 0.0
    local_amplitude_x: float = 0.0
    local_amplitude_y: float = 0.0
    local_period_frames: float = 20.0
    local_phase: float = 0.0

    def position(self, frame_index: int) -> Tuple[float, float]:
        px, py = self.parent.position(frame_index)
        angle = 2.0 * math.pi * frame_index / self.local_period_frames + self.local_phase
        return (
            px + self.offset_x + self.local_amplitude_x * math.sin(angle),
            py + self.offset_y + self.local_amplitude_y * math.cos(angle),
        )
