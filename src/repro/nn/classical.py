"""A classical (non-CNN) tracking baseline operating on real pixels.

The NCC template tracker plays two roles:

* it is a genuine pixel-domain implementation, so the library's end-to-end
  path (sensor -> ISP -> backend) can be exercised without any simulated
  component, and
* it stands in for the hand-crafted approaches (KCF-class trackers) that
  the paper uses as low-compute/low-accuracy reference points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.geometry import BoundingBox
from ..core.types import Detection


@dataclass(frozen=True)
class NCCTrackerConfig:
    """Configuration of the template-matching tracker."""

    #: Search radius around the previous location, in pixels.
    search_radius: int = 12
    #: Template learning rate: 0 keeps the first-frame template forever,
    #: 1 replaces it every frame.
    template_update_rate: float = 0.05
    #: Step between evaluated candidate positions, in pixels.
    search_stride: int = 1


class NCCTemplateTracker:
    """Single-target tracker based on normalised cross-correlation.

    The tracker crops a template around the initial box, then on every frame
    searches a window around the previous position for the location with the
    highest normalised cross-correlation.  This is the classic pre-CNN
    tracking recipe and provides a real-pixel baseline for MDNet.
    """

    def __init__(self, config: NCCTrackerConfig | None = None) -> None:
        self.config = config or NCCTrackerConfig()
        self._template: Optional[np.ndarray] = None
        self._box: Optional[BoundingBox] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, frame: np.ndarray, box: BoundingBox) -> None:
        """Capture the template from the first frame's annotation.

        The template is a copy: ``frame`` may be a buffer the ISP recycles.
        """
        self._box = box.round()
        self._template = self._crop(frame, self._box).copy()

    @property
    def is_initialized(self) -> bool:
        return self._template is not None

    def track(self, frame: np.ndarray) -> Detection:
        """Locate the target in ``frame`` and return the new box."""
        if self._template is None or self._box is None:
            raise RuntimeError("tracker must be initialised before tracking")
        frame = np.asarray(frame, dtype=np.float64)
        best_score, best_offset = self._search(frame)
        new_box = self._box.translate(*best_offset)
        new_box = new_box.clip(frame.shape[1], frame.shape[0])
        if new_box.is_empty():
            new_box = self._box
        self._box = new_box

        rate = self.config.template_update_rate
        if rate > 0:
            fresh = self._crop(frame, self._box.round())
            if fresh.shape == self._template.shape:
                self._template = (1.0 - rate) * self._template + rate * fresh

        return Detection(box=new_box, label="target", score=float(best_score))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _search(self, frame: np.ndarray) -> Tuple[float, Tuple[float, float]]:
        assert self._box is not None and self._template is not None
        radius = self.config.search_radius
        stride = self.config.search_stride
        best_score = -2.0
        best_offset = (0.0, 0.0)
        for dy in range(-radius, radius + 1, stride):
            for dx in range(-radius, radius + 1, stride):
                candidate = self._box.translate(dx, dy).round()
                patch = self._crop(frame, candidate)
                if patch.shape != self._template.shape or patch.size == 0:
                    continue
                score = _normalised_cross_correlation(patch, self._template)
                if score > best_score:
                    best_score = score
                    best_offset = (float(dx), float(dy))
        return best_score, best_offset

    @staticmethod
    def _crop(frame: np.ndarray, box: BoundingBox) -> np.ndarray:
        height, width = frame.shape
        x0 = int(max(0, round(box.left)))
        y0 = int(max(0, round(box.top)))
        x1 = int(min(width, round(box.right)))
        y1 = int(min(height, round(box.bottom)))
        return np.asarray(frame[y0:y1, x0:x1], dtype=np.float64)


def _normalised_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean normalised cross-correlation between two equal-size patches."""
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom < 1e-9:
        return 0.0
    return float((a * b).sum() / denom)
