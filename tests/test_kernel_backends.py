"""Kernel-backend selection, fallback, and bit-identity of the C kernels.

The oracle hierarchy is scalar -> numpy -> c: the scalar loops of
:mod:`repro.motion.reference` define the searches, the numpy kernels match
them bit for bit, and the compiled kernels of :mod:`repro.motion.ckernels`
match both -- vectors, SADs, the exhaustive search's ``SearchStats`` and
``last_operation_count``.  These tests build and run the real library:

* resolution -- ``resolve_kernel_backend`` validates names and returns
  ``c`` where the library builds, and the matcher then runs C on every
  frame;
* equivalence -- hypothesis drives TSS and every ES policy over ragged
  uint8 frames, with blocks of 4, 8, 16 and 24 pixels so the 16-byte,
  8-byte and scalar tails of the SAD all run, at d = 0..7; once more
  against a build without SSE2;
* ROI statistics -- ``euph_roi_stats`` equals
  ``MotionField.roi_statistics`` bit for bit on random fields and ROIs
  (off the frame, of zero area, on block edges, signed zeros, more than
  128 blocks), numpy's pairwise summation order is pinned, and the
  extrapolator gives the same detections and filter states under both
  backends;
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
from repro.core.extrapolation import ExtrapolationConfig, MotionExtrapolator
from repro.core.geometry import BoundingBox
from repro.core.spec import PipelineSpec
from repro.core.types import Detection
from repro.motion import ckernels
from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchPolicy,
    SearchStrategy,
)
from repro.motion.kernels import KERNEL_BACKENDS, resolve_kernel_backend
from repro.motion.motion_field import MacroblockGrid, MotionField
from repro.motion.reference import scalar_estimate
from repro.video.datasets import build_otb_like_dataset
from repro.video.synthetic import SequenceConfig, SequenceGenerator

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


def _bits(values) -> list:
    """Each float's bit pattern (tells -0.0 from 0.0)."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_roi_stats_match(field: MotionField, rois) -> None:
    """``euph_roi_stats`` returns ``roi_statistics``' u, v and confidence
    bit for bit."""
    grid = field.grid
    got = ckernels.roi_stats(
        field.vectors,
        field.sad,
        grid.frame_height,
        grid.frame_width,
        grid.block_size,
        [(roi.x, roi.y, roi.width, roi.height) for roi in rois],
    )
    for roi, row in zip(rois, got):
        motion, confidence = field.roi_statistics(roi)
        assert _bits(row) == _bits([motion.u, motion.v, confidence]), roi


def _random_field(rng, width, height, block_size) -> MotionField:
    """Integer and fractional vectors, some -0.0, and SADs from zero to past
    the Eq. 2 maximum, where the confidence clips to 0."""
    grid = MacroblockGrid(width, height, block_size)
    vectors = rng.normal(0.0, 3.0, (grid.rows, grid.cols, 2))
    rounded = rng.random(vectors.shape) < 0.3
    vectors[rounded] = np.round(vectors[rounded])
    vectors[rng.random(vectors.shape) < 0.2] = -0.0
    max_sad = 255.0 * block_size * block_size
    sad = rng.uniform(0.0, 1.2 * max_sad, (grid.rows, grid.cols))
    sad[rng.random(sad.shape) < 0.1] = 0.0
    sad[rng.random(sad.shape) < 0.1] = max_sad
    return MotionField(vectors, sad, grid)


def _numpy_sum_model(values) -> float:
    """numpy's sum of a contiguous float64 array, in numpy's order: the
    reduction adds a pairwise sum to 0.0."""

    def pairwise(terms):
        n = len(terms)
        if n < 8:
            total = -0.0
            for term in terms:
                total += term
            return total
        if n <= 128:
            partial = list(terms[:8])
            k = 8
            while k < n - n % 8:
                for m in range(8):
                    partial[m] += terms[k + m]
                k += 8
            total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
                (partial[4] + partial[5]) + (partial[6] + partial[7])
            )
            for term in terms[k:]:
                total += term
            return total
        half = n // 2 - (n // 2) % 8
        return pairwise(terms[:half]) + pairwise(terms[half:])

    return 0.0 + pairwise([float(value) for value in np.ravel(values)])


def _moving_sequence(num_frames=10):
    """Three objects moving fast over a textured background, with the
    motion fields between consecutive frames."""
    sequence = SequenceGenerator(
        SequenceConfig(num_frames=num_frames, num_objects=3, seed=4, base_speed=5.0)
    ).generate()
    matcher = BlockMatcher()
    fields = [
        matcher.estimate(sequence.frame(index), sequence.frame(index - 1))
        for index in range(1, num_frames)
    ]
    return sequence, fields


def _extrapolation_trace(extrapolator, sequence, fields) -> tuple:
    """Every frame's extrapolated boxes and filter states, as bit patterns.

    The detections add an anonymous ROI off the frame, a zero-area one and
    a second detection of object 0, which shares its filter state."""
    detections = sequence.truth_detections(0) + [
        Detection(BoundingBox(-50.0, -40.0, 20.0, 10.0)),
        Detection(BoundingBox(100.0, 50.0, 0.0, 0.0)),
        Detection(BoundingBox(10.0, 12.5, 30.0, 20.0), object_id=0),
    ]
    states: dict = {}
    frames = []
    for field in fields:
        detections = extrapolator.extrapolate_detections(detections, field, states)
        frames.append(
            (
                [_bits(detection.box.as_xywh()) for detection in detections],
                {
                    key: _bits(
                        [state.filtered_motion.u, state.filtered_motion.v, state.last_confidence]
                    )
                    for key, state in states.items()
                },
            )
        )
    return frames, extrapolator.total_operations


#: Coordinate nudges around a block edge: none, 1e-6 (the right and bottom
#: edges' own epsilon) and one ulp, each way.
_NUDGES = (
    lambda x: x,
    lambda x: x + 1e-6,
    lambda x: x - 1e-6,
    lambda x: float(np.nextafter(x, np.inf)),
    lambda x: float(np.nextafter(x, -np.inf)),
)


@st.composite
def _fields_and_rois(draw):
    """A random field over a random grid, and ROIs on and off its frame."""
    width, height = draw(st.integers(8, 320)), draw(st.integers(8, 320))
    block_size = draw(st.sampled_from([4, 5, 8, 16, 24, 64]))
    field = _random_field(
        np.random.default_rng(draw(st.integers(0, 2**31))), width, height, block_size
    )
    zeros = st.sampled_from([0.0, -0.0])

    def on_edge(blocks):
        return st.builds(
            lambda k, nudge: nudge(float(k * block_size)),
            st.integers(-2, blocks + 2),
            st.sampled_from(_NUDGES),
        )

    def coordinate(extent, blocks):
        return st.one_of(st.floats(-extent, 2.0 * extent), on_edge(blocks), zeros)

    def size(extent, blocks):
        return st.one_of(
            st.floats(0.0, 1.5 * extent), on_edge(blocks).map(abs), zeros
        )

    rois = draw(
        st.lists(
            st.builds(
                BoundingBox,
                coordinate(width, field.grid.cols),
                coordinate(height, field.grid.rows),
                size(width, field.grid.cols),
                size(height, field.grid.rows),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return field, rois


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

    def test_integer_frames_activate_forced_backend(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        for strategy, policy in SEARCHES:
            matcher, _field = _match(frame, frame, strategy, policy, "c", 8, 2)
            assert matcher.last_kernel_backend == "c"
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


class TestRoiStatistics:
    """``euph_roi_stats`` is ``MotionField.roi_statistics``, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(case=_fields_and_rois())
    def test_c_equals_roi_statistics(self, case):
        field, rois = case
        _assert_roi_stats_match(field, rois)

    def test_rois_over_128_blocks_take_the_pairwise_split(self):
        """Block counts on each side of numpy's 8-term and 128-term
        boundaries, and a whole-frame ROI of 59,475 blocks."""
        field = _random_field(np.random.default_rng(7), 1300, 730, 4)
        rois = [BoundingBox(0.0, 0.0, 4.0 * n, 4.0) for n in (7, 8, 9, 127, 128, 129, 136, 137, 257)]
        rois += [BoundingBox(-3.5, -2.0, 1310.0, 740.0), BoundingBox(10.3, 20.7, 600.1, 300.9)]
        counts = []
        for roi in rois:
            rows, cols = field.grid.blocks_overlapping(roi)
            counts.append((rows.stop - rows.start) * (cols.stop - cols.start))
        assert counts[:9] == [7, 8, 9, 127, 128, 129, 136, 137, 257]
        assert counts[9] == 325 * 183
        _assert_roi_stats_match(field, rois)

    def test_a_coordinate_that_is_not_finite_returns_none(self):
        """The numpy path raises there; the extrapolator falls back to it."""
        field = MotionField.zero(MacroblockGrid(64, 48, 16))
        for roi in ((np.nan, 0.0, 1.0, 1.0), (1e308, 0.0, 1.7e308, 0.0)):
            assert ckernels.roi_stats(field.vectors, field.sad, 48, 64, 16, [roi]) is None
        extrapolator = MotionExtrapolator(kernel_backend="c")
        assert extrapolator.kernel_backend == "c"
        with pytest.raises(ValueError, match="NaN"):
            extrapolator.extrapolate_roi(BoundingBox(1e308, 0.0, 1.7e308, 0.0), field)

    def test_mismatched_arrays_are_refused(self):
        field = MotionField.zero(MacroblockGrid(64, 48, 16))
        with pytest.raises(ValueError, match="block grid"):
            ckernels.roi_stats(field.vectors, field.sad, 48, 80, 16, [(0, 0, 1, 1)])
        with pytest.raises(ValueError, match="block grid"):
            ckernels.roi_stats(field.vectors, field.sad, 48, 64, 16, [(0, 0, 1)])


class TestPairwiseSummation:
    """The kernel sums in numpy's order; if numpy changes it, this fails."""

    def test_model_equals_numpy_sum(self):
        rng = np.random.default_rng(11)
        left_to_right_misses = 0
        for n in range(1, 301):
            values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
            assert _bits(_numpy_sum_model(values)) == _bits(np.sum(values)), n
            left_to_right_misses += _bits(sum(values.tolist())) != _bits(np.sum(values))
        assert left_to_right_misses > 150

    def test_two_dimensional_sums_follow_the_flat_order(self):
        """The weights are 2-D blocks; numpy sums them as one flat array."""
        rng = np.random.default_rng(12)
        for shape in ((3, 3), (4, 32), (5, 29), (17, 19), (64, 64)):
            values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-6, 7, shape)
            assert _bits(_numpy_sum_model(values)) == _bits(values.sum()), shape

    def test_signed_zeros(self):
        for n in (1, 7, 8, 9, 129):
            negative = np.full(n, -0.0)
            assert _bits(_numpy_sum_model(negative)) == _bits(np.sum(negative)) == _bits(0.0)


class TestExtrapolatorBackends:
    def test_detections_and_states_match_over_a_sequence(self):
        sequence, fields = _moving_sequence()
        for sub_roi_grid in ((2, 2), (1, 1), (3, 2)):
            traces = {}
            for backend in KERNEL_BACKENDS:
                extrapolator = MotionExtrapolator(
                    ExtrapolationConfig(sub_roi_grid=sub_roi_grid),
                    frame_width=sequence.width,
                    frame_height=sequence.height,
                    kernel_backend=backend,
                )
                assert extrapolator.kernel_backend == backend
                traces[backend] = _extrapolation_trace(extrapolator, sequence, fields)
            assert traces["c"] == traces["numpy"], sub_roi_grid

    def test_sessions_pass_the_spec_backend(self):
        for backend in KERNEL_BACKENDS:
            pipeline = PipelineSpec(kernel_backend=backend).build(tracking_backend_for("mdnet"))
            session = pipeline.open_session(64, 48, name="s")
            assert session._extrapolator.kernel_backend == backend


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
            field = _random_field(rng, 53, 50, block_size)
            _assert_roi_stats_match(
                field,
                [BoundingBox(*rng.uniform(-10.0, 60.0, 2), *rng.uniform(0.0, 40.0, 2)) for _ in range(20)],
            )

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
        moving, fields = _moving_sequence(num_frames=5)

        def extrapolate():
            extrapolator = MotionExtrapolator(frame_width=moving.width, frame_height=moving.height)
            return extrapolator.kernel_backend, _extrapolation_trace(extrapolator, moving, fields)

        backend, extrapolated = extrapolate()
        assert backend == "c"

        monkeypatch.setattr(ckernels, "COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(ckernels, "CACHE_DIR", tmp_path / "empty")
        monkeypatch.setattr(ckernels, "_loaded", None)
        with pytest.warns(RuntimeWarning, match="C kernels unavailable.*no-such-cc"):
            assert resolve_kernel_backend("c") == "numpy"
        assert [run(spec) for spec in specs] == oracle
        assert extrapolate() == ("numpy", extrapolated)
        matcher = BlockMatcher()
        matcher.estimate(*_frame_pair(np.random.default_rng(1), 32, 32, "noise"))
        assert matcher.last_kernel_backend == "numpy"
