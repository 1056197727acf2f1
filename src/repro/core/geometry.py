"""Geometric primitives shared by the whole library.

The central type is :class:`BoundingBox`, the axis-aligned region of interest
(ROI) used by detectors, trackers and the Euphrates extrapolation engine.
Boxes use image-coordinate conventions: ``x`` grows to the right, ``y`` grows
downwards, and ``(x, y)`` is the top-left corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Point:
    """A 2-D point in image coordinates (pixels)."""

    x: float
    y: float

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point moved by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class MotionVector:
    """A 2-D displacement, in pixels, between two frames.

    ``u`` is the horizontal component and ``v`` the vertical component,
    matching the paper's <u, v> notation (Sec. 2.3): an MV of <u, v> for a
    macroblock at <x, y> means the block content was at <x + u, y + v> in the
    previous frame, i.e. the block moved by <-u, -v> going forward in time.
    Throughout this library we store *forward* motion (previous -> current),
    so extrapolation simply adds the MV to the previous ROI.
    """

    u: float
    v: float

    def magnitude(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.u, self.v)

    def scale(self, factor: float) -> "MotionVector":
        """Return the vector multiplied by ``factor``."""
        return MotionVector(self.u * factor, self.v * factor)

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.u - other.u, self.v - other.v)

    def blend(self, other: "MotionVector", weight: float) -> "MotionVector":
        """Return ``weight * self + (1 - weight) * other``.

        This is the recursive filter of Eq. 3 in the paper where ``self`` is
        the current frame's average motion and ``other`` the previous frame's
        filtered motion.
        """
        return MotionVector(
            weight * self.u + (1.0 - weight) * other.u,
            weight * self.v + (1.0 - weight) * other.v,
        )

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(u, v)``."""
        return (self.u, self.v)


ZERO_MOTION = MotionVector(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned region of interest.

    Attributes
    ----------
    x, y:
        Top-left corner, in pixels.  Fractional values are allowed because
        extrapolated boxes accumulate sub-pixel motion.
    width, height:
        Box extent in pixels.  Always non-negative.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError(
                f"BoundingBox dimensions must be non-negative, got "
                f"width={self.width}, height={self.height}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, x0: float, y0: float, x1: float, y1: float) -> "BoundingBox":
        """Build a box from two opposite corners (any order)."""
        left, right = min(x0, x1), max(x0, x1)
        top, bottom = min(y0, y1), max(y0, y1)
        return cls(left, top, right - left, bottom - top)

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "BoundingBox":
        """Build a box from its center point and extent."""
        return cls(cx - width / 2.0, cy - height / 2.0, width, height)

    @classmethod
    def union_of(cls, boxes: Sequence["BoundingBox"]) -> "BoundingBox":
        """Return the minimal box enclosing every box in ``boxes``.

        This is the operation the paper uses to merge extrapolated sub-ROIs
        back into a single ROI (Sec. 3.2, "Handle Deformations").
        """
        if not boxes:
            raise ValueError("union_of requires at least one box")
        left = min(b.left for b in boxes)
        top = min(b.top for b in boxes)
        right = max(b.right for b in boxes)
        bottom = max(b.bottom for b in boxes)
        return cls.from_corners(left, top, right, bottom)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def left(self) -> float:
        return self.x

    @property
    def top(self) -> float:
        return self.y

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)

    def is_empty(self) -> bool:
        """True when the box has zero area."""
        return self.width == 0 or self.height == 0

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def intersection(self, other: "BoundingBox") -> "BoundingBox":
        """Return the overlapping region (possibly empty)."""
        left = max(self.left, other.left)
        top = max(self.top, other.top)
        right = min(self.right, other.right)
        bottom = min(self.bottom, other.bottom)
        if right <= left or bottom <= top:
            return BoundingBox(left, top, 0.0, 0.0)
        return BoundingBox(left, top, right - left, bottom - top)

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Return the minimal box covering both boxes."""
        return BoundingBox.union_of([self, other])

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-Union with ``other``.

        This is the accuracy metric used throughout the paper's evaluation
        (Sec. 5.2).  Two empty boxes have IoU 0.
        """
        inter = self.intersection(other).area
        if inter == 0.0:
            return 0.0
        union_area = self.area + other.area - inter
        if union_area <= 0.0:
            return 0.0
        return inter / union_area

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside (or on the boundary of) the box."""
        return self.left <= point.x <= self.right and self.top <= point.y <= self.bottom

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translate(self, dx: float, dy: float) -> "BoundingBox":
        """Return the box shifted by ``(dx, dy)``."""
        return BoundingBox(self.x + dx, self.y + dy, self.width, self.height)

    def shift(self, motion: MotionVector) -> "BoundingBox":
        """Return the box shifted by a motion vector (R_F = R_{F-1} + MV_F)."""
        return self.translate(motion.u, motion.v)

    def scale(self, sx: float, sy: float | None = None) -> "BoundingBox":
        """Return the box scaled about its center by ``(sx, sy)``."""
        if sy is None:
            sy = sx
        c = self.center
        return BoundingBox.from_center(c.x, c.y, self.width * sx, self.height * sy)

    def clip(self, frame_width: float, frame_height: float) -> "BoundingBox":
        """Return the box clipped to ``[0, frame_width] x [0, frame_height]``."""
        left = min(max(self.left, 0.0), frame_width)
        top = min(max(self.top, 0.0), frame_height)
        right = min(max(self.right, 0.0), frame_width)
        bottom = min(max(self.bottom, 0.0), frame_height)
        return BoundingBox.from_corners(left, top, right, bottom)

    def round(self) -> "BoundingBox":
        """Return the box with integer-rounded coordinates."""
        return BoundingBox(
            float(round(self.x)),
            float(round(self.y)),
            float(round(self.width)),
            float(round(self.height)),
        )

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def split(self, rows: int, cols: int) -> List["BoundingBox"]:
        """Split the box into a ``rows x cols`` grid of sub-ROIs.

        Used by the deformation-aware extrapolation (Sec. 3.2): each sub-ROI
        is extrapolated independently and the results are merged with
        :meth:`union_of`.
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        sub_w = self.width / cols
        sub_h = self.height / rows
        cells = []
        for r in range(rows):
            for c in range(cols):
                cells.append(
                    BoundingBox(self.x + c * sub_w, self.y + r * sub_h, sub_w, sub_h)
                )
        return cells

    def as_xywh(self) -> Tuple[float, float, float, float]:
        """Return ``(x, y, width, height)``."""
        return (self.x, self.y, self.width, self.height)

    def as_corners(self) -> Tuple[float, float, float, float]:
        """Return ``(left, top, right, bottom)``."""
        return (self.left, self.top, self.right, self.bottom)


def mean_iou(pairs: Iterable[Tuple[BoundingBox, BoundingBox]]) -> float:
    """Average IoU over an iterable of (predicted, ground-truth) pairs."""
    total = 0.0
    count = 0
    for predicted, truth in pairs:
        total += predicted.iou(truth)
        count += 1
    if count == 0:
        return 0.0
    return total / count
