"""Simulated CNN object detector.

Produces per-frame detections by perturbing ground truth according to an
:class:`~repro.nn.profiles.AccuracyProfile`.  The perturbation is a
deterministic function of ``(seed, sequence, frame_index)`` so experiments
are reproducible and independent of evaluation order — crucial because the
Euphrates pipeline only invokes the detector on I-frames, whose positions
depend on the extrapolation-window schedule.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np

from ..core.geometry import BoundingBox
from ..core.types import Detection
from .models import NetworkSpec
from .profiles import AccuracyProfile


def _stable_rng(seed: int, sequence_name: str, frame_index: int) -> np.random.Generator:
    """Deterministic RNG derived from the experiment seed and frame identity."""
    digest = hashlib.sha256(
        f"{seed}:{sequence_name}:{frame_index}".encode("utf-8")
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class SimulatedCNNDetector:
    """Multi-object detector with a calibrated accuracy profile."""

    def __init__(
        self,
        network: NetworkSpec,
        profile: AccuracyProfile,
        seed: int = 0,
        frame_width: int = 0,
        frame_height: int = 0,
    ) -> None:
        self.network = network
        self.profile = profile
        self.seed = seed
        self.frame_width = frame_width
        self.frame_height = frame_height
        #: Number of inference passes executed (for sanity checks in tests).
        self.inference_count = 0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def detect(
        self,
        frame_index: int,
        truth: Sequence[Detection],
        sequence_name: str = "",
    ) -> List[Detection]:
        """Run one simulated inference pass and return detections."""
        rng = _stable_rng(self.seed, sequence_name or self.network.name, frame_index)
        width, height = self.frame_width, self.frame_height
        profile = self.profile
        self.inference_count += 1

        detections: List[Detection] = []
        for item in truth:
            if rng.random() < profile.miss_rate:
                continue
            detections.append(self._perturb(item, rng, width, height))

        detections.extend(self._false_positives(rng, width, height))
        return detections

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _perturb(
        self, item: Detection, rng: np.random.Generator, width: int, height: int
    ) -> Detection:
        box = item.box
        scale = 0.5 * (box.width + box.height)
        cx = box.center.x + rng.normal(0.0, self.profile.center_noise * scale)
        cy = box.center.y + rng.normal(0.0, self.profile.center_noise * scale)
        new_w = box.width * max(0.2, 1.0 + rng.normal(0.0, self.profile.size_noise))
        new_h = box.height * max(0.2, 1.0 + rng.normal(0.0, self.profile.size_noise))
        noisy = BoundingBox.from_center(cx, cy, new_w, new_h)
        if width and height:
            noisy = noisy.clip(width, height)
        score = float(np.clip(rng.normal(self.profile.score_mean, self.profile.score_std), 0.05, 1.0))
        return Detection(
            box=noisy,
            label=item.label,
            score=score,
            object_id=item.object_id,
            extrapolated=False,
        )

    def _false_positives(
        self, rng: np.random.Generator, width: int, height: int
    ) -> List[Detection]:
        if self.profile.false_positives_per_frame <= 0 or not width or not height:
            return []
        count = rng.poisson(self.profile.false_positives_per_frame)
        extras: List[Detection] = []
        for _ in range(count):
            w = rng.uniform(0.08, 0.3) * width
            h = rng.uniform(0.08, 0.3) * height
            x = rng.uniform(0, max(1.0, width - w))
            y = rng.uniform(0, max(1.0, height - h))
            score = float(np.clip(rng.normal(0.35, 0.15), 0.05, 0.9))
            extras.append(
                Detection(
                    box=BoundingBox(x, y, w, h),
                    label="false_positive",
                    score=score,
                    object_id=None,
                    extrapolated=False,
                )
            )
        return extras
