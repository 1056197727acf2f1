"""Kernel-backend selection, fallback, and bit-identity of the C kernels.

The oracle hierarchy is scalar -> numpy -> c: the scalar loops of
:mod:`repro.motion.reference` define the searches, the numpy kernels match
them bit for bit, and the compiled kernels of :mod:`repro.motion.ckernels`
match both -- vectors, SADs, the exhaustive search's ``SearchStats`` and
``last_operation_count``.  These tests build and run the real library:

* resolution -- ``resolve_kernel_backend`` validates names and returns
  ``c`` where the library builds; non-uint8 frames stay on numpy;
* equivalence -- hypothesis drives TSS and every ES policy over ragged
  uint8 frames, with blocks of 4, 8, 16 and 24 pixels so the 16-byte,
  8-byte and scalar tails of the SAD all run, at d = 0..7; once more
  against a build without SSE2;
* the cache -- two processes starting on a cold cache both load it, and
  each machine type gets a library of its own;
* fallback -- with no compiler the backend degrades to numpy, says why,
  and a pipeline gives the same output.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import tracking_backend_for
from repro.core.spec import PipelineSpec
from repro.motion import ckernels
from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchPolicy,
    SearchStrategy,
)
from repro.motion.kernels import KERNEL_BACKENDS, resolve_kernel_backend
from repro.motion.reference import scalar_estimate
from repro.video.datasets import build_otb_like_dataset

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Every search the matcher runs: TSS, and ES under each policy.
SEARCHES = [(SearchStrategy.THREE_STEP, SearchPolicy.PRUNED)] + [
    (SearchStrategy.EXHAUSTIVE, policy) for policy in SearchPolicy
]


def _match(current, previous, strategy, policy, backend, block_size, search_range):
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size,
            search_range=search_range,
            strategy=strategy,
            search_policy=policy,
            kernel_backend=backend,
        )
    )
    return matcher, matcher.estimate(current, previous)


def _assert_c_equals_numpy(current, previous, block_size, search_range, oracle=True):
    """C and numpy agree on every search, and both equal the scalar oracle."""
    for strategy, policy in SEARCHES:
        c_matcher, c_field = _match(
            current, previous, strategy, policy, "c", block_size, search_range
        )
        np_matcher, np_field = _match(
            current, previous, strategy, policy, "numpy", block_size, search_range
        )
        label = (strategy.value, policy.value)
        assert c_matcher.last_kernel_backend == "c", label
        assert np_matcher.last_kernel_backend == "numpy", label
        assert np.array_equal(c_field.vectors, np_field.vectors), label
        assert np.array_equal(c_field.sad, np_field.sad), label
        assert c_matcher.last_search_stats == np_matcher.last_search_stats, label
        assert c_matcher.last_operation_count == np_matcher.last_operation_count, label
        if oracle:
            expected = scalar_estimate(
                current,
                previous,
                block_size=block_size,
                search_range=search_range,
                three_step=strategy is SearchStrategy.THREE_STEP,
            )
            assert np.array_equal(c_field.vectors, expected.vectors), label
            assert np.array_equal(c_field.sad, expected.sad), label


def _frame_pair(rng, height, width, kind):
    """Two uint8 frames: independent noise, one shifted texture, or flat."""
    if kind == "noise":
        return (
            rng.integers(0, 256, (height, width), dtype=np.uint8),
            rng.integers(0, 256, (height, width), dtype=np.uint8),
        )
    if kind == "shifted":
        texture = rng.integers(0, 256, (height + 8, width + 8), dtype=np.uint8)
        return texture[4 : 4 + height, 3 : 3 + width], texture[2 : 2 + height, 6 : 6 + width]
    flat = np.full((height, width), int(rng.integers(0, 256)), dtype=np.uint8)
    return flat, flat.copy()


class TestBackendResolution:
    def test_known_backends(self):
        assert KERNEL_BACKENDS == ("numpy", "c")
        assert resolve_kernel_backend("numpy") == "numpy"
        assert PipelineSpec().kernel_backend == BlockMatchingConfig().kernel_backend == "c"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_kernel_backend("numba")
        with pytest.raises(ValueError, match="kernel backend"):
            BlockMatchingConfig(kernel_backend="cython")

    def test_c_resolves_to_c_where_it_builds(self):
        assert resolve_kernel_backend("c") == "c", ckernels._loaded
        assert ckernels.load() is not None

    def test_float_frames_always_ride_numpy(self):
        """Only uint8 frames go to C: fractional floats keep the numpy
        gather, whose pairwise reduction order the scalar oracle defines."""
        rng = np.random.default_rng(0)
        frame = rng.uniform(0, 255, (16, 16))
        matcher, field = _match(frame, frame, *SEARCHES[0], "c", 8, 2)
        assert not matcher.last_kernel_exact
        assert matcher.last_kernel_backend == "numpy"
        assert np.array_equal(field.sad, np.zeros((2, 2)))

    def test_integer_frames_activate_forced_backend(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        for strategy, policy in SEARCHES:
            matcher, _field = _match(frame, frame, strategy, policy, "c", 8, 2)
            assert matcher.last_kernel_backend == "c"
            assert matcher.last_kernel_exact and matcher.last_kernel_scale == 1
        numpy_matcher, _field = _match(frame, frame, *SEARCHES[0], "numpy", 8, 2)
        assert numpy_matcher.last_kernel_backend == "numpy"


class TestBackendEquivalence:
    """C must be bit-identical to numpy and to the scalar oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([4, 8, 16, 24]),
        search_range=st.integers(0, 7),
        height=st.integers(9, 60),
        width=st.integers(9, 60),
        kind=st.sampled_from(["noise", "shifted", "flat"]),
    )
    def test_integer_frames_all_policies(
        self, seed, block_size, search_range, height, width, kind
    ):
        rng = np.random.default_rng(seed)
        current, previous = _frame_pair(rng, height, width, kind)
        _assert_c_equals_numpy(current, previous, block_size, search_range)

    def test_fixed_point_frames(self):
        """Q8.4 lattice frames ride numpy's scaled integer path under c."""
        rng = np.random.default_rng(11)
        current = np.round(rng.uniform(0, 255, (24, 32)) * 16) / 16
        previous = np.round(rng.uniform(0, 255, (24, 32)) * 16) / 16
        for strategy, policy in SEARCHES:
            matcher, field = _match(current, previous, strategy, policy, "c", 8, 2)
            expected = scalar_estimate(
                current,
                previous,
                block_size=8,
                search_range=2,
                three_step=strategy is SearchStrategy.THREE_STEP,
            )
            assert matcher.last_kernel_backend == "numpy"
            assert matcher.last_kernel_scale == 16
            assert np.array_equal(field.vectors, expected.vectors), policy
            assert np.array_equal(field.sad, expected.sad), policy

    def test_three_step_search(self):
        """720p-shaped TSS on textured motion, strided rows included."""
        rng = np.random.default_rng(12)
        texture = rng.integers(0, 256, (90, 170), dtype=np.uint8)
        current, previous = texture[5:77, 3:131], texture[2:74, 9:137]
        assert not current.flags.c_contiguous
        _assert_c_equals_numpy(current, previous, 16, 7)

    def test_flat_frame_early_exit_accounting(self):
        """Flat frames stop every block at once; the work accounting of the
        C driver equals numpy's under every policy."""
        flat = np.full((32, 40), 200, dtype=np.uint8)
        for search_range in (0, 1, 3, 7):
            _assert_c_equals_numpy(flat, flat, 8, search_range)
        matcher, field = _match(flat, flat, *SEARCHES[2], "c", 8, 3)
        stats = matcher.last_search_stats
        num_offsets = (2 * 3 + 1) ** 2
        assert field.max_magnitude() == 0.0
        assert stats.candidates_evaluated == stats.candidates_total // num_offsets
        assert stats.offsets_skipped == num_offsets - 1
        assert stats.lower_bound_checks == 0

    def test_block_sums_beyond_32_bits(self):
        """One 4200-pixel block of bright pixels sums past 2**31; its lower
        bound must stay exact, so pruning keeps the full scan's winner."""
        rng = np.random.default_rng(3)
        previous = rng.integers(240, 256, (40, 40), dtype=np.uint8)
        current = np.roll(previous, (1, 2), (0, 1))
        _full_matcher, full = _match(current, previous, *SEARCHES[1], "c", 4200, 2)
        assert full.vectors.tolist() == [[[-2.0, 1.0]]]
        for strategy, policy in SEARCHES[2:]:
            _matcher, field = _match(current, previous, strategy, policy, "c", 4200, 2)
            assert np.array_equal(field.vectors, full.vectors), policy
            assert np.array_equal(field.sad, full.sad), policy

    def test_luma_sequence_accounting(self):
        """On a textured pan, C's lower-bound checks and operation count
        equal numpy's: one check per block for every visited offset."""
        from repro.harness.perf import synthetic_luma_sequence

        frames = synthetic_luma_sequence(48, 64, 2)
        _assert_c_equals_numpy(frames[1], frames[0], 16, 7, oracle=False)
        matcher, _field = _match(frames[1], frames[0], *SEARCHES[2], "c", 16, 7)
        assert matcher.last_search_stats.lower_bound_checks == 2688
        assert matcher.last_operation_count == 216064


class TestBuilds:
    def test_scalar_branch_matches(self, monkeypatch, tmp_path):
        """A build without SSE2 runs the scalar tails only, and agrees."""
        default_library = ckernels._build()
        monkeypatch.setattr(ckernels, "FLAGS", ckernels.FLAGS + ("-U__SSE2__",))
        monkeypatch.setattr(ckernels, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(ckernels, "_loaded", None)
        assert ckernels.load() is not None, ckernels._loaded
        (scalar_library,) = tmp_path.glob("*.so")
        if platform.machine() in ("x86_64", "AMD64"):
            assert scalar_library.read_bytes() != default_library.read_bytes()
        rng = np.random.default_rng(5)
        for block_size in (4, 8, 16, 24):
            current, previous = _frame_pair(rng, 50, 53, "shifted")
            _assert_c_equals_numpy(current, previous, block_size, 5, oracle=False)

    def test_two_processes_on_a_cold_cache_both_load(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from pathlib import Path
            from repro.motion import ckernels
            ckernels.CACHE_DIR = Path(sys.argv[1])
            assert ckernels.load() is not None, ckernels._loaded
            print("LOADED")
            """
        )
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o755)
        env = dict(os.environ, PYTHONPATH=_SRC)
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        for run in runs:
            stdout, stderr = run.communicate(timeout=300)
            assert run.returncode == 0, stderr
            assert "LOADED" in stdout
        assert [path.suffix for path in cache.iterdir()] == [".so"]

    def test_each_machine_type_gets_its_own_library(self, monkeypatch, tmp_path):
        """A cache shared by hosts of two architectures holds a library for
        each: the name hashes the machine type."""
        monkeypatch.setattr(ckernels, "CACHE_DIR", tmp_path)
        native = ckernels._build()
        monkeypatch.setattr(platform, "machine", lambda: "other-machine")
        assert ckernels._build() != native
        assert len(list(tmp_path.glob("*.so"))) == 2

    def test_world_writable_cache_is_refused(self, monkeypatch, tmp_path):
        tmp_path.chmod(0o777)
        monkeypatch.setattr(ckernels, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(ckernels, "_loaded", None)
        with pytest.warns(RuntimeWarning, match="world-writable"):
            assert ckernels.load() is None
        assert list(tmp_path.iterdir()) == []


class TestGracefulDegradation:
    """With no compiler, ``c`` runs on numpy, says why, and changes nothing."""

    def test_missing_compiler_degrades_to_numpy(self, monkeypatch, tmp_path):
        dataset = build_otb_like_dataset(num_sequences=1, frames_per_sequence=6)
        (sequence,) = dataset.sequences

        def run(spec):
            result = spec.build(tracking_backend_for("mdnet")).run(sequence)
            return (
                [(frame.kind, frame.boxes()) for frame in result.frames],
                [event.motion_ops for event in result.telemetry],
            )

        specs = [PipelineSpec(), PipelineSpec(exhaustive_search=True)]
        oracle = [run(replace(spec, kernel_backend="numpy")) for spec in specs]
        assert [run(spec) for spec in specs] == oracle

        monkeypatch.setattr(ckernels, "COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(ckernels, "CACHE_DIR", tmp_path / "empty")
        monkeypatch.setattr(ckernels, "_loaded", None)
        with pytest.warns(RuntimeWarning, match="C kernels unavailable.*no-such-cc"):
            assert resolve_kernel_backend("c") == "numpy"
        assert [run(spec) for spec in specs] == oracle
        matcher = BlockMatcher()
        matcher.estimate(*_frame_pair(np.random.default_rng(1), 32, 32, "noise"))
        assert matcher.last_kernel_backend == "numpy"
