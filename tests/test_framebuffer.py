"""Tests for the DRAM frame buffer and its traffic accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import MotionVector
from repro.isp.framebuffer import FrameBuffer, FrameBufferEntry, PIXEL_BYTES_PER_PIXEL
from repro.motion.motion_field import MacroblockGrid, MotionField


def _entry(frame_index: int = 0, with_motion: bool = True) -> FrameBufferEntry:
    pixels = np.zeros((48, 64))
    field = None
    if with_motion:
        field = MotionField.uniform(MacroblockGrid(64, 48, 16), MotionVector(1.0, 0.0))
    return FrameBufferEntry(frame_index=frame_index, pixels=pixels, motion_field=field)


class TestFrameBufferEntry:
    def test_pixel_bytes(self):
        entry = _entry()
        assert entry.pixel_bytes == 48 * 64 * PIXEL_BYTES_PER_PIXEL

    def test_motion_metadata_bytes(self):
        with_motion = _entry(with_motion=True)
        without_motion = _entry(with_motion=False)
        assert with_motion.motion_metadata_bytes == 24
        assert without_motion.motion_metadata_bytes == 0
        assert with_motion.has_motion_vectors
        assert not without_motion.has_motion_vectors

    def test_metadata_is_small_fraction_of_pixels(self):
        """The paper's point: MV metadata is tiny next to the pixel data."""
        entry = _entry()
        assert entry.motion_metadata_bytes < 0.01 * entry.pixel_bytes

    def test_total_bytes(self):
        entry = _entry()
        assert entry.total_bytes == (
            entry.pixel_bytes + entry.baseline_metadata_bytes + entry.motion_metadata_bytes
        )


class TestFrameBuffer:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            FrameBuffer(depth=0)

    def test_push_and_latest(self):
        buffer = FrameBuffer(depth=2)
        buffer.push(_entry(0))
        buffer.push(_entry(1))
        assert buffer.latest().frame_index == 1
        assert len(buffer) == 2

    def test_ring_evicts_oldest(self):
        buffer = FrameBuffer(depth=2)
        for index in range(3):
            buffer.push(_entry(index))
        assert len(buffer) == 2
        with pytest.raises(LookupError):
            buffer.get(0)
        assert buffer.get(2).frame_index == 2

    def test_empty_lookup_errors(self):
        buffer = FrameBuffer()
        with pytest.raises(LookupError):
            buffer.latest()

    def test_write_traffic_accumulates(self):
        buffer = FrameBuffer()
        entry = _entry(0)
        buffer.push(entry)
        buffer.push(_entry(1))
        assert buffer.bytes_written == 2 * entry.total_bytes

    def test_read_traffic_differs_by_section(self):
        buffer = FrameBuffer()
        entry = _entry(0)
        buffer.push(entry)
        buffer.read_pixels(0)
        pixel_traffic = buffer.bytes_read
        buffer.read_motion_metadata(0)
        metadata_traffic = buffer.bytes_read - pixel_traffic
        assert pixel_traffic == entry.pixel_bytes
        assert metadata_traffic == entry.motion_metadata_bytes
        assert metadata_traffic < pixel_traffic
