"""DRAM frame buffer shared between the vision frontend and backend.

The ISP writes each processed frame (pixel data plus metadata) into a frame
buffer in DRAM; the backend IPs read from it through the system MMU
(Sec. 4.2).  Euphrates piggybacks the existing frame-buffer mechanism to
carry the motion vectors: they are appended to the metadata section, adding
only ~8 KB to the ~6 MB a 1080p frame already occupies.

The module also defines the **fixed-point frame representation** the ISP
stages quantize to (:class:`FixedPointFormat`).  A real ISP datapath carries
pixels as narrow fixed-point words, not float64; modelling that explicitly
means every frame the pipeline produces lies on a power-of-two lattice.
Block matching does not see the lattice: the temporal-denoise stage rounds
its matching reference to 8-bit luma under every format.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from ..motion.motion_field import MotionField


#: Bytes per pixel of the RGB/YUV frame the ISP commits to DRAM.  A 1080p
#: frame at 3 bytes/pixel is ~6 MB, matching the paper's figure.
PIXEL_BYTES_PER_PIXEL = 3


@dataclass(frozen=True)
class FixedPointFormat:
    """A ``Qm.f`` unsigned fixed-point pixel format.

    Values lie on the ``2**-frac_bits`` lattice within
    ``[0, 2**int_bits - 2**-frac_bits]``.  Frames are *carried* as float64
    (so existing numpy code is untouched) but every value is an exact
    multiple of the lattice step.
    """

    int_bits: int = 8
    frac_bits: int = 4

    def __post_init__(self) -> None:
        if self.int_bits <= 0 or self.frac_bits < 0:
            raise ValueError("int_bits must be positive and frac_bits non-negative")

    @property
    def scale(self) -> int:
        """Lattice denominator: raw code = value * scale."""
        return 1 << self.frac_bits

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def max_value(self) -> float:
        """Largest representable value (all code bits set)."""
        return ((1 << self.total_bits) - 1) / self.scale

    def quantize(
        self,
        values: np.ndarray,
        out: "np.ndarray | None" = None,
        *,
        assume_in_range: bool = False,
    ) -> np.ndarray:
        """Round to the nearest representable value (saturating, float64 out).

        ``out`` (a float64 buffer of the right shape, which may alias
        ``values``) makes the operation allocation-free for steady-state
        callers; the in-place sequence multiplies, rounds, clips and
        rescales in exactly the order of the allocating expression, so both
        paths are bit-identical.  ``assume_in_range`` skips the saturation
        pass; callers may only set it when every value provably lies in
        ``[0, max_value]`` (then the clip is an exact no-op, so the result
        is unchanged — this just avoids a full pass over the frame).
        """
        values = np.asarray(values, dtype=np.float64)
        if assume_in_range and self.total_bits <= 51:
            # Two passes instead of four: adding ``1.5 * 2**52 / scale``
            # pushes the sum into a binade whose ulp is exactly the lattice
            # step, so IEEE round-to-nearest-even performs the same rounding
            # ``rint(x * scale) / scale`` does (ties included), and the
            # subtraction restores the rounded value exactly.  Valid while
            # the value range stays below the constant's half-binade, which
            # ``assume_in_range`` plus ``total_bits <= 51`` guarantees.
            magic = float(3 << 51) / self.scale
            if out is None:
                return (values + magic) - magic
            np.add(values, magic, out=out)
            np.subtract(out, magic, out=out)
            return out
        top_code = float((1 << self.total_bits) - 1)
        if out is None:
            scaled = np.rint(values * self.scale)
            if not assume_in_range:
                scaled = np.clip(scaled, 0.0, top_code)
            return scaled / self.scale
        np.multiply(values, float(self.scale), out=out)
        np.rint(out, out=out)
        if not assume_in_range:
            np.clip(out, 0.0, top_code, out=out)
        np.divide(out, float(self.scale), out=out)
        return out


#: The pipeline's default frame format: Q8.4 — the 8-bit range real ISPs
#: commit to DRAM plus 4 fractional bits of intermediate precision, the
#: same lattice the SAD kernel probes for.
DEFAULT_FRAME_FORMAT = FixedPointFormat(int_bits=8, frac_bits=4)

#: Spelling of the unquantized float64 datapath in ``--frame-format``.
FLOAT_FRAME_FORMAT = "float"

_FRAME_FORMAT_PATTERN = re.compile(r"^q(\d+)\.(\d+)$")


def parse_frame_format(value: "str | FixedPointFormat | None") -> "FixedPointFormat | None":
    """Resolve a ``--frame-format`` spelling to a :class:`FixedPointFormat`.

    ``"qM.F"`` (e.g. ``q8.4``) names an M-integer/F-fractional-bit lattice;
    ``"float"`` (or ``None``) selects the unquantized float64 datapath.  An
    already-built format passes through, so config layers accept either form.
    """
    if value is None or isinstance(value, FixedPointFormat):
        return value
    spelled = str(value).strip().lower()
    if spelled == FLOAT_FRAME_FORMAT:
        return None
    match = _FRAME_FORMAT_PATTERN.match(spelled)
    if match is None:
        raise ValueError(
            f"unknown frame format '{value}' (expected 'qM.F' like 'q8.4', "
            f"or '{FLOAT_FRAME_FORMAT}')"
        )
    return FixedPointFormat(int_bits=int(match.group(1)), frac_bits=int(match.group(2)))


def spell_frame_format(fmt: "FixedPointFormat | None") -> str:
    """Inverse of :func:`parse_frame_format` (``q8.4`` / ``float``)."""
    if fmt is None:
        return FLOAT_FRAME_FORMAT
    return f"q{fmt.int_bits}.{fmt.frac_bits}"


@dataclass
class FrameBufferEntry:
    """One frame's worth of data in the DRAM frame buffer."""

    frame_index: int
    #: Luma plane of the processed frame (what the vision backend consumes).
    pixels: np.ndarray
    #: Motion vectors + confidences produced by the ISP's TD stage; ``None``
    #: when the Euphrates MV-exposure augmentation is disabled or when the
    #: frame had no reference (first frame of a stream).
    motion_field: Optional[MotionField] = None
    #: Extra metadata bytes (exposure, AWB gains, histograms ...) that a real
    #: ISP writes regardless of Euphrates.
    baseline_metadata_bytes: int = 256
    #: Fixed-point format the pixel values lie on; ``None`` for legacy
    #: unquantized frames.  Purely descriptive — the byte accounting keeps
    #: the paper's 3 bytes/pixel figure either way.
    pixel_format: Optional[FixedPointFormat] = None

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def pixel_bytes(self) -> int:
        """Size of the pixel section in bytes."""
        return self.height * self.width * PIXEL_BYTES_PER_PIXEL

    @property
    def motion_metadata_bytes(self) -> int:
        """Size of the motion-vector metadata appended by Euphrates."""
        if self.motion_field is None:
            return 0
        return self.motion_field.metadata_bytes()

    @property
    def total_bytes(self) -> int:
        """Total DRAM footprint of this entry."""
        return self.pixel_bytes + self.baseline_metadata_bytes + self.motion_metadata_bytes

    @property
    def has_motion_vectors(self) -> bool:
        return self.motion_field is not None


class FrameBuffer:
    """A bounded ring of the most recent frame-buffer entries.

    Real SoCs allocate a small number of frame buffers and recycle them; the
    depth here bounds how many frames the backend may lag behind the
    frontend.  The buffer also tallies the DRAM write traffic the frontend
    generates, which feeds the SoC memory-energy model.
    """

    def __init__(self, depth: int = 4) -> None:
        if depth <= 0:
            raise ValueError("frame buffer depth must be positive")
        self.depth = depth
        self._entries: Deque[FrameBufferEntry] = deque(maxlen=depth)
        #: Total bytes written into the buffer since creation.
        self.bytes_written = 0
        #: Total bytes read out of the buffer since creation.
        self.bytes_read = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: FrameBufferEntry) -> None:
        """Commit a new frame from the frontend."""
        self._entries.append(entry)
        self.bytes_written += entry.total_bytes

    def latest(self) -> FrameBufferEntry:
        """The most recently committed frame."""
        if not self._entries:
            raise LookupError("frame buffer is empty")
        return self._entries[-1]

    def get(self, frame_index: int) -> FrameBufferEntry:
        """Entry for a specific frame index, if it is still resident."""
        for entry in self._entries:
            if entry.frame_index == frame_index:
                return entry
        raise LookupError(f"frame {frame_index} is no longer in the frame buffer")

    def read_pixels(self, frame_index: int) -> np.ndarray:
        """Backend read of a frame's pixel data (counts full pixel traffic)."""
        entry = self.get(frame_index)
        self.bytes_read += entry.pixel_bytes
        return entry.pixels

    def read_motion_metadata(self, frame_index: int) -> Optional[MotionField]:
        """Backend read of a frame's MV metadata (counts metadata traffic only)."""
        entry = self.get(frame_index)
        self.bytes_read += entry.motion_metadata_bytes
        return entry.motion_field
