"""Micro-benchmarks of the compute kernels (wall-clock, via pytest-benchmark).

These are not paper figures; they characterise the Python implementation
itself: block-matching throughput for ES vs TSS, the cost of one ROI
extrapolation, and one full ISP frame.  Useful for tracking performance
regressions of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extrapolation import MotionExtrapolator
from repro.core.geometry import BoundingBox, MotionVector
from repro.isp.pipeline import ISPPipeline
from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from repro.motion.motion_field import MacroblockGrid, MotionField


@pytest.fixture(scope="module")
def frame_pair():
    rng = np.random.default_rng(0)
    previous = np.kron(rng.uniform(0, 255, (14, 24)), np.ones((8, 8))).astype(np.uint8)
    current = np.roll(previous, (2, 3), axis=(0, 1))
    return current, previous


def test_block_matching_tss_throughput(benchmark, frame_pair):
    current, previous = frame_pair
    matcher = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP))
    field = benchmark(matcher.estimate, current, previous)
    assert field.grid.num_blocks > 0


def test_block_matching_es_throughput(benchmark, frame_pair):
    current, previous = frame_pair
    matcher = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
    field = benchmark(matcher.estimate, current, previous)
    assert field.grid.num_blocks > 0


def test_roi_extrapolation_throughput(benchmark):
    grid = MacroblockGrid(192, 108, 16)
    field = MotionField.uniform(grid, MotionVector(2.0, 1.0))
    extrapolator = MotionExtrapolator(frame_width=192, frame_height=108)
    roi = BoundingBox(40, 30, 50, 40)
    result = benchmark(extrapolator.extrapolate_roi, roi, field)
    assert result.box.width > 0


def test_isp_luma_frame_throughput(benchmark):
    rng = np.random.default_rng(1)
    frames = [rng.uniform(0, 255, (108, 192)) for _ in range(2)]
    isp = ISPPipeline()
    isp.process_luma(frames[0], 0)

    def process():
        isp.process_luma(frames[1], 1)

    benchmark(process)
    assert isp.frames_processed >= 2
