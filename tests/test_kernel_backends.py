"""Kernel-backend selection, graceful degradation, and bit-identity.

Three layers of coverage for the optional compiled (Numba) SAD backend:

* resolution — ``resolve_kernel_backend`` validates names and degrades
  ``numba`` to ``numpy`` when the ``[accel]`` extra is absent;
* graceful degradation — a subprocess with the ``numba`` import blocked
  still runs a ``kernel_backend="numba"`` pipeline, on numpy, bit-identically;
* equivalence — a hypothesis property drive of the full pruned/histogram ES
  pipeline comparing the numba code paths against the numpy backend and the
  scalar oracle.  When Numba is not installed the backend is *forced* active
  so the ``kernels_numba`` loops execute as plain Python — slow, but the
  same code the compiler compiles, so the logic is verified everywhere and
  the CI ``kernels-accel`` job re-runs it compiled.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion import kernels_numba
from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchPolicy,
    SearchStrategy,
)
from repro.motion.kernels import (
    KERNEL_BACKENDS,
    SadKernel,
    numba_available,
    resolve_kernel_backend,
)
from repro.motion.reference import scalar_estimate

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestBackendResolution:
    def test_known_backends(self):
        assert KERNEL_BACKENDS == ("numpy", "numba")
        assert resolve_kernel_backend("numpy") == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_kernel_backend("cython")
        with pytest.raises(ValueError, match="kernel backend"):
            BlockMatchingConfig(kernel_backend="cython")

    def test_numba_resolution_matches_availability(self):
        expected = "numba" if numba_available() else "numpy"
        assert resolve_kernel_backend("numba") == expected

    def test_float_frames_always_ride_numpy(self, monkeypatch):
        """Fractional floats stay on the numpy gather path even when the
        compiled backend is available: a compiled sequential float sum would
        round differently than the oracle's pairwise reduction."""
        monkeypatch.setattr(kernels_numba, "NUMBA_AVAILABLE", True)
        rng = np.random.default_rng(0)
        frame = rng.uniform(0, 255, (16, 16))
        kernel = SadKernel(frame, frame, 8, 2, backend="numba")
        assert not kernel.exact_integer
        assert kernel.requested_backend == "numba"
        assert kernel.active_backend == "numpy"

    def test_integer_frames_activate_forced_backend(self, monkeypatch):
        monkeypatch.setattr(kernels_numba, "NUMBA_AVAILABLE", True)
        frame = np.zeros((16, 16), dtype=np.uint8)
        kernel = SadKernel(frame, frame, 8, 2, backend="numba")
        assert kernel.active_backend == "numba"
        assert kernel.supports_fused


class TestGracefulDegradation:
    """kernel_backend="numba" without Numba must run, on numpy, identically."""

    def test_blocked_numba_import_degrades_to_numpy(self):
        script = textwrap.dedent(
            """
            import sys
            # Block the numba import before repro is loaded: `None` in
            # sys.modules makes `import numba` raise ImportError, which is
            # exactly what an environment without the [accel] extra does.
            sys.modules["numba"] = None

            import numpy as np
            from repro.motion import kernels_numba
            from repro.motion.block_matching import (
                BlockMatcher,
                BlockMatchingConfig,
                SearchPolicy,
                SearchStrategy,
            )
            from repro.motion.kernels import numba_available, resolve_kernel_backend

            assert not kernels_numba.NUMBA_AVAILABLE
            assert not numba_available()
            assert resolve_kernel_backend("numba") == "numpy"

            rng = np.random.default_rng(0)
            current = rng.integers(0, 256, (32, 40)).astype(np.uint8)
            previous = rng.integers(0, 256, (32, 40)).astype(np.uint8)

            fields = {}
            for backend in ("numba", "numpy"):
                matcher = BlockMatcher(
                    BlockMatchingConfig(
                        block_size=8,
                        search_range=3,
                        strategy=SearchStrategy.EXHAUSTIVE,
                        search_policy=SearchPolicy.PRUNED,
                        kernel_backend=backend,
                    )
                )
                fields[backend] = matcher.estimate(current, previous)
                assert matcher.last_kernel_backend == "numpy", backend

            assert np.array_equal(fields["numba"].vectors, fields["numpy"].vectors)
            assert np.array_equal(fields["numba"].sad, fields["numpy"].sad)
            print("DEGRADE-OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "DEGRADE-OK" in result.stdout


@pytest.fixture
def active_numba(monkeypatch):
    """Make the numba backend active even when Numba is not installed.

    ``kernels_numba``'s loops are plain Python functions when uncompiled, so
    forcing availability runs the exact code the JIT would compile — the
    logic under test is identical, only the speed differs.
    """
    monkeypatch.setattr(kernels_numba, "NUMBA_AVAILABLE", True)


def _estimate(current, previous, policy, backend, block_size, search_range):
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size,
            search_range=search_range,
            strategy=SearchStrategy.EXHAUSTIVE,
            search_policy=policy,
            kernel_backend=backend,
        )
    )
    return matcher, matcher.estimate(current, previous)


class TestBackendEquivalence:
    """The numba code paths must be bit-identical to numpy and the oracle."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([4, 8]),
        search_range=st.sampled_from([0, 1, 2]),
        height=st.integers(8, 24),
        width=st.integers(8, 24),
    )
    def test_integer_frames_all_policies(
        self, seed, block_size, search_range, height, width
    ):
        # An inline monkeypatch context (not the fixture): hypothesis
        # forbids function-scoped fixtures inside @given.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels_numba, "NUMBA_AVAILABLE", True)
            rng = np.random.default_rng(seed)
            current = rng.integers(0, 256, (height, width)).astype(np.uint8)
            previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
            oracle = scalar_estimate(
                current,
                previous,
                block_size=block_size,
                search_range=search_range,
                three_step=False,
            )
            for policy in SearchPolicy:
                matcher, field = _estimate(
                    current, previous, policy, "numba", block_size, search_range
                )
                assert matcher.last_kernel_backend == "numba"
                assert np.array_equal(field.vectors, oracle.vectors), policy
                assert np.array_equal(field.sad, oracle.sad), policy
                _numpy_matcher, numpy_field = _estimate(
                    current, previous, policy, "numpy", block_size, search_range
                )
                assert np.array_equal(field.vectors, numpy_field.vectors), policy
                assert np.array_equal(field.sad, numpy_field.sad), policy

    def test_fixed_point_frames(self, active_numba):
        """Q8.4 lattice floats descale identically through the fused driver."""
        rng = np.random.default_rng(11)
        current = np.round(rng.uniform(0, 255, (24, 32)) * 16) / 16
        previous = np.round(rng.uniform(0, 255, (24, 32)) * 16) / 16
        oracle = scalar_estimate(
            current, previous, block_size=8, search_range=2, three_step=False
        )
        for policy in SearchPolicy:
            matcher, field = _estimate(current, previous, policy, "numba", 8, 2)
            assert matcher.last_kernel_backend == "numba"
            assert matcher.last_kernel_scale == 16
            assert np.array_equal(field.vectors, oracle.vectors), policy
            assert np.array_equal(field.sad, oracle.sad), policy

    def test_three_step_search(self, active_numba):
        """TSS rides the compiled per-block primitive; same field as numpy."""
        rng = np.random.default_rng(12)
        current = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        previous = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        oracle = scalar_estimate(
            current, previous, block_size=16, search_range=7, three_step=True
        )
        matcher = BlockMatcher(
            BlockMatchingConfig(
                block_size=16,
                search_range=7,
                strategy=SearchStrategy.THREE_STEP,
                kernel_backend="numba",
            )
        )
        field = matcher.estimate(current, previous)
        assert matcher.last_kernel_backend == "numba"
        assert np.array_equal(field.vectors, oracle.vectors)
        assert np.array_equal(field.sad, oracle.sad)

    def test_flat_frame_early_exit_accounting(self, active_numba):
        """The fused driver's work accounting matches the numpy driver's."""
        flat = np.full((32, 32), 200, dtype=np.uint8)
        for policy in (SearchPolicy.PRUNED, SearchPolicy.HISTOGRAM):
            matcher, field = _estimate(flat, flat, policy, "numba", 8, 3)
            assert field.max_magnitude() == 0.0
            stats = matcher.last_search_stats
            num_offsets = (2 * 3 + 1) ** 2
            assert stats.candidates_evaluated == stats.candidates_total // num_offsets
            assert stats.offsets_skipped == num_offsets - 1
