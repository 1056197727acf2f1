"""Equivalence tests for the exhaustive-search candidate-scan policies.

The pruned and histogram policies must return *bit-identical* motion fields to
the full scan and to the scalar reference oracle — same argmin, same SAD —
because their pruning rules only skip candidates that provably cannot
strictly improve a block's best SAD.  These property tests drive all three
policies over random 8-bit frames, including the ``search_range=0``
degenerate window and frames that need edge padding (sizes that are not
multiples of the block size).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.experiments import search_policy_comparison
from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchPolicy,
    SearchStrategy,
)
from repro.motion.kernels import resolve_kernel_backend
from repro.motion.reference import scalar_estimate


def _policy_fields(current, previous, block_size, search_range):
    """Run every policy and return {policy: (matcher, field)}."""
    out = {}
    for policy in SearchPolicy:
        matcher = BlockMatcher(
            BlockMatchingConfig(
                block_size=block_size,
                search_range=search_range,
                strategy=SearchStrategy.EXHAUSTIVE,
                search_policy=policy,
            )
        )
        out[policy] = (matcher, matcher.estimate(current, previous))
    return out


def _assert_all_policies_match_oracle(current, previous, block_size, search_range):
    oracle = scalar_estimate(
        current, previous, block_size=block_size, search_range=search_range, three_step=False
    )
    for policy, (_matcher, field) in _policy_fields(
        current, previous, block_size, search_range
    ).items():
        assert np.array_equal(field.vectors, oracle.vectors), policy
        assert np.array_equal(field.sad, oracle.sad), policy


class TestPolicyEquivalence:
    """Property tests: every policy equals the full scan and the oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_integer_frames(self, seed, block_size, search_range, height, width):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        _assert_all_policies_match_oracle(current, previous, block_size, search_range)

    def test_zero_search_range(self):
        """d = 0 collapses the window to the co-located block for every policy."""
        rng = np.random.default_rng(3)
        current = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        previous = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        _assert_all_policies_match_oracle(current, previous, 8, 0)
        for _matcher, field in _policy_fields(current, previous, 8, 0).values():
            assert field.max_magnitude() == 0.0

    def test_edge_padded_blocks(self):
        """Frame sizes that are not block multiples exercise the edge padding."""
        rng = np.random.default_rng(4)
        for height, width in [(50, 70), (33, 47), (17, 90)]:
            current = rng.integers(0, 256, (height, width)).astype(np.uint8)
            previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
            _assert_all_policies_match_oracle(current, previous, 16, 7)

    def test_flat_frames_keep_zero_motion_tiebreak(self):
        """Ties (flat content) must break identically: smallest motion wins."""
        flat = np.full((48, 64), 128, dtype=np.uint8)
        fields = _policy_fields(flat, flat, 16, 7)
        for _matcher, field in fields.values():
            assert field.max_magnitude() == 0.0
            assert np.all(field.sad == 0.0)
        # The SAD-0 early exit fires after the seeding (0, 0) evaluation:
        # all 224 remaining offsets are skipped, and the accounting says so.
        # The histogram policy pins (0, 0) first too, so it exits the same way.
        for policy in (SearchPolicy.PRUNED, SearchPolicy.HISTOGRAM):
            stats = fields[policy][0].last_search_stats
            assert stats.candidates_evaluated == stats.candidates_total // 225
            assert stats.offsets_skipped == 224


class TestPolicyWorkAccounting:
    def test_pruning_reduces_candidate_evaluations(self):
        """On matchable content the non-full policies skip real work."""
        rng = np.random.default_rng(5)
        coarse = rng.uniform(0, 255, (16, 20))
        canvas = np.kron(coarse, np.ones((8, 8)))
        previous = canvas[: 96, : 128].astype(np.uint8)
        current = canvas[2 : 98, 3 : 131].astype(np.uint8)
        fields = _policy_fields(current, previous, 16, 7)
        full_stats = fields[SearchPolicy.FULL][0].last_search_stats
        pruned_stats = fields[SearchPolicy.PRUNED][0].last_search_stats
        histogram_stats = fields[SearchPolicy.HISTOGRAM][0].last_search_stats
        assert full_stats.candidates_evaluated == full_stats.candidates_total
        assert pruned_stats.candidates_evaluated < full_stats.candidates_total
        assert histogram_stats.candidates_evaluated < full_stats.candidates_total
        assert pruned_stats.lower_bound_checks > 0

    def test_full_policy_operation_count_matches_analytical(self):
        rng = np.random.default_rng(6)
        frame = rng.integers(0, 256, (64, 96)).astype(np.uint8)
        config = BlockMatchingConfig(
            strategy=SearchStrategy.EXHAUSTIVE, search_policy=SearchPolicy.FULL
        )
        matcher = BlockMatcher(config)
        matcher.estimate(frame, frame)
        expected = (64 // 16) * (96 // 16) * config.ops_per_macroblock
        assert matcher.last_operation_count == expected

    def test_search_policy_accepts_strings(self):
        config = BlockMatchingConfig(search_policy="histogram")
        assert config.search_policy is SearchPolicy.HISTOGRAM
        with pytest.raises(ValueError):
            BlockMatchingConfig(search_policy="bogus")

    def test_tss_ignores_policy_and_clears_stats(self):
        rng = np.random.default_rng(7)
        frame = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        matcher = BlockMatcher(
            BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        )
        matcher.estimate(frame, frame)
        assert matcher.last_search_stats is None


class TestSearchPolicyComparison:
    """The fig11b helper artifact: deterministic, identical, cheaper."""

    def test_rows_report_identical_and_cheaper_policies(self):
        rows = search_policy_comparison(height=96, width=128)
        by_policy = {
            policy: (fraction, ops, identical, backend)
            for policy, fraction, ops, identical, backend in rows
        }
        assert set(by_policy) == {"full", "pruned", "histogram"}
        assert all(identical for _f, _o, identical, _b in by_policy.values())
        # The default backend served every policy.
        expected = resolve_kernel_backend("c")
        assert all(backend == expected for _f, _o, _i, backend in by_policy.values())
        assert by_policy["full"][0] == 1.0
        assert by_policy["pruned"][1] < by_policy["full"][1]
        assert by_policy["histogram"][1] < by_policy["full"][1]
