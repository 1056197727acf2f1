"""Perf microbenchmark: vectorized motion estimation vs the scalar oracle.

Marked ``perf`` and excluded from the default pytest run (see ``pytest.ini``);
run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_motion.py -m perf -q

The committed ``BENCH_motion.json`` trajectory (appended to by
``python -m repro.harness bench motion``, enforced by the CI ``perf-guard``
job) records the same numbers so the trend is visible in the repo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.perf import benchmark_motion_estimation, synthetic_luma_sequence
from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig
from repro.motion.reference import scalar_estimate

pytestmark = pytest.mark.perf


def test_vectorized_tss_at_least_10x_scalar_at_720p():
    payload = benchmark_motion_estimation(
        resolutions={"720p": (720, 1280)},
        num_frames=4,
        include_exhaustive=False,
    )
    entry = payload["results"][0]
    assert entry["vectorized_fps"] > entry["scalar_fps"]
    assert entry["speedup"] >= 10.0, f"only {entry['speedup']:.1f}x"


def test_pruned_es_at_least_2x_full_es_at_720p():
    """The search-policy acceptance floor: pruning must pay for itself."""
    payload = benchmark_motion_estimation(
        resolutions={"720p": (720, 1280)},
        num_frames=4,
        include_scalar=False,
    )
    entry = payload["results"][0]
    assert entry["es_pruned_speedup_vs_full"] >= 2.0, (
        f"only {entry['es_pruned_speedup_vs_full']:.1f}x"
    )
    # Pruning skips most of the window on matchable content.
    assert entry["es_pruned_evaluated_fraction"] < 0.5


def test_vectorized_matches_oracle_on_bench_content():
    frames = synthetic_luma_sequence(720, 1280, 3, seed=3)
    matcher = BlockMatcher(BlockMatchingConfig())
    field = matcher.estimate(frames[2], frames[1])
    oracle = scalar_estimate(frames[2], frames[1])
    assert np.array_equal(field.vectors, oracle.vectors)
    assert np.array_equal(field.sad, oracle.sad)


def test_1080p_reaches_real_time_budget():
    """The north star is hardware-speed operation; track 1080p throughput."""
    payload = benchmark_motion_estimation(
        resolutions={"1080p": (1080, 1920)},
        num_frames=3,
        include_scalar=False,
        include_exhaustive=False,
    )
    entry = payload["results"][0]
    # Loose floor so CI noise cannot flake this; the JSON records the trend.
    assert entry["vectorized_fps"] > 2.0
