"""Bit-identity property tests for the vectorized/compiled ISP stage kernels.

The oracle hierarchy mirrors the SAD kernels': the scalar references in
:mod:`repro.isp.reference` define the semantics, the vectorized numpy
kernels must match them exactly, and the compiled C blend
(:mod:`repro.motion.ckernels`) must match both.  Every comparison is
``np.array_equal`` — bit-identity, never a tolerance.

Coverage steers the numpy blend through all three of its internal paths:

* **dominant** — one displacement covers at least half the macroblock grid
  (whole-rectangle view blend + restore);
* **dense** — many distinct displacements but a near-dense valid grid
  (source-only gather through blocked destination views);
* **sparse** — few valid blocks (pooled flat-index gather/scatter);

plus Q8.4 fixed-point frames, fractional float frames, ragged frame edges,
``search_range=0`` fields, non-contiguous output buffers and scratch-pool
reuse across frames.  A pinned end-to-end run asserts the vectorization
never moved the *energy model* (satellite requirement: ``fold_energy_breakdown``
unchanged).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import BoundingBox
from repro.isp.framebuffer import FixedPointFormat
from repro.isp.kernels import (
    bilinear_demosaic,
    box_sum_3x3,
    motion_compensated_blend,
)
from repro.isp.reference import (
    reference_bilinear_demosaic,
    reference_box_sum_3x3,
    reference_motion_compensated_blend,
    reference_roi_statistics,
)
from repro.motion.kernels import KernelScratch, _edge_pad_pooled
from repro.motion.motion_field import MacroblockGrid, MotionField

#: The denoise stage's default blend parameters.
BLEND = dict(blend_strength=0.5, max_normalised_sad=0.15)

FRAME_KINDS = ("uint8", "q8.4", "float")
FIELD_MODES = ("dominant", "dense", "sparse", "zero")


def make_frame(rng: np.random.Generator, height: int, width: int, kind: str) -> np.ndarray:
    """A float64 frame whose values lie in the requested domain."""
    if kind == "uint8":
        return rng.integers(0, 256, (height, width)).astype(np.float64)
    if kind == "q8.4":
        return np.round(rng.uniform(0.0, 255.0, (height, width)) * 16.0) / 16.0
    return rng.uniform(0.0, 255.0, (height, width))


def make_field(
    rng: np.random.Generator,
    height: int,
    width: int,
    block: int,
    mode: str,
    search_range: int = 3,
) -> MotionField:
    """A motion field crafted to steer the blend down one internal path.

    ``mode`` picks the displacement structure: ``dominant`` makes one
    displacement cover most of the grid, ``dense`` scatters displacements
    over a near-fully-valid grid, ``sparse`` marks most blocks as bad
    matches, and ``zero`` is the ``search_range=0`` degenerate field.
    """
    grid = MacroblockGrid(frame_width=width, frame_height=height, block_size=block)
    if mode == "zero":
        return MotionField.zero(grid, search_range=0)
    rows, cols = grid.rows, grid.cols
    vectors = rng.integers(-search_range, search_range + 1, (rows, cols, 2)).astype(
        np.float64
    )
    max_sad = 255.0 * block * block
    good = max_sad * BLEND["max_normalised_sad"] * 0.5
    bad = max_sad * 0.5
    if mode == "dominant":
        u, v = rng.integers(-search_range, search_range + 1, 2)
        covered = rng.random((rows, cols)) < 0.8
        vectors[covered] = (float(u), float(v))
        valid_fraction = 0.95
    elif mode == "dense":
        valid_fraction = 0.9
    else:  # sparse
        valid_fraction = 0.2
    sad = np.where(rng.random((rows, cols)) < valid_fraction, good, bad)
    return MotionField(vectors, sad, grid, search_range=search_range)


class TestBlendBitIdentity:
    """numpy blend == scalar reference, across all internal paths."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block=st.sampled_from([4, 8]),
        height=st.integers(12, 44),
        width=st.integers(12, 44),
        mode=st.sampled_from(FIELD_MODES),
        kind=st.sampled_from(FRAME_KINDS),
    )
    def test_matches_reference(self, seed, block, height, width, mode, kind):
        rng = np.random.default_rng(seed)
        current = make_frame(rng, height, width, kind)
        previous = make_frame(rng, height, width, kind)
        field = make_field(rng, height, width, block, mode)
        expected = reference_motion_compensated_blend(
            current, previous, field, **BLEND
        )
        got = motion_compensated_blend(current, previous, field, **BLEND)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["dominant", "dense", "sparse"])
    def test_each_path_with_ragged_edges(self, mode):
        """Deterministic per-path coverage on a frame with partial edge blocks."""
        rng = np.random.default_rng(42)
        height, width, block = 43, 38, 8  # 5x4 full grid + ragged strips
        current = make_frame(rng, height, width, "uint8")
        previous = make_frame(rng, height, width, "uint8")
        field = make_field(rng, height, width, block, mode)
        expected = reference_motion_compensated_blend(
            current, previous, field, **BLEND
        )
        got = motion_compensated_blend(current, previous, field, **BLEND)
        assert np.array_equal(got, expected)

    def test_search_range_zero_field(self):
        """A zero field blends every block in place (the dominant (0,0) path)."""
        rng = np.random.default_rng(7)
        current = make_frame(rng, 32, 40, "q8.4")
        previous = make_frame(rng, 32, 40, "q8.4")
        field = make_field(rng, 32, 40, 8, "zero")
        expected = reference_motion_compensated_blend(
            current, previous, field, **BLEND
        )
        got = motion_compensated_blend(current, previous, field, **BLEND)
        assert np.array_equal(got, expected)
        assert np.array_equal(
            got, (1.0 - BLEND["blend_strength"]) * current
            + BLEND["blend_strength"] * previous
        )

    @pytest.mark.parametrize("mode", ["dominant", "dense", "sparse"])
    def test_non_contiguous_out_buffer(self, mode):
        """Every path writes correctly through a strided ``out`` view."""
        rng = np.random.default_rng(11)
        height, width = 40, 44
        current = make_frame(rng, height, width, "uint8")
        previous = make_frame(rng, height, width, "uint8")
        field = make_field(rng, height, width, 4, mode)
        base = np.empty((height, 2 * width), dtype=np.float64)
        out = base[:, ::2]
        assert not out.flags.c_contiguous
        got = motion_compensated_blend(current, previous, field, out=out, **BLEND)
        assert got is out
        expected = reference_motion_compensated_blend(
            current, previous, field, **BLEND
        )
        assert np.array_equal(out, expected)

    def test_scratch_pool_reuse_across_paths(self):
        """One KernelScratch serves successive frames on different paths."""
        rng = np.random.default_rng(23)
        height, width = 36, 36
        pool = KernelScratch()
        out = np.empty((height, width), dtype=np.float64)
        for mode in ("dense", "dominant", "sparse", "dense", "zero"):
            current = make_frame(rng, height, width, "uint8")
            previous = make_frame(rng, height, width, "uint8")
            field = make_field(rng, height, width, 4, mode)
            expected = reference_motion_compensated_blend(
                current, previous, field, **BLEND
            )
            got = motion_compensated_blend(
                current, previous, field, out=out, scratch=pool, **BLEND
            )
            assert np.array_equal(got, expected), mode

    @pytest.mark.parametrize("mode", ["dominant", "dense", "sparse", "zero"])
    def test_uint8_current_frame(self, mode):
        """A raw uint8 ``current`` blends bit-identically to its widening.

        The steady-state denoise stage hands the capture buffer straight to
        the kernel; every read of ``current`` lands in a float64 destination
        and uint8 -> float64 conversion is exact, so skipping the up-front
        full-frame copy must not move a single bit (numpy and C paths,
        ragged edge blocks included).
        """
        rng = np.random.default_rng(31)
        height, width, block = 43, 38, 8  # ragged bottom/right strips
        current_u8 = rng.integers(0, 256, (height, width), dtype=np.uint8)
        current_f64 = current_u8.astype(np.float64)
        previous = make_frame(rng, height, width, "uint8")
        field = make_field(rng, height, width, block, mode)
        expected = reference_motion_compensated_blend(
            current_f64, previous, field, **BLEND
        )
        got = motion_compensated_blend(current_u8, previous, field, **BLEND)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        got_c = motion_compensated_blend(current_u8, previous, field, backend="c", **BLEND)
        assert np.array_equal(got_c, expected)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block=st.sampled_from([4, 5, 8]),
        height=st.integers(9, 44),
        width=st.integers(9, 44),
        mode=st.sampled_from(FIELD_MODES),
        kind=st.sampled_from(FRAME_KINDS),
    )
    def test_c_blend_matches_reference(self, seed, block, height, width, mode, kind):
        """The compiled C blend agrees on uint8 and float64 ``current``,
        ragged edges included; a strided ``out`` falls back to numpy."""
        rng = np.random.default_rng(seed)
        current = make_frame(rng, height, width, kind)
        previous = make_frame(rng, height, width, kind)
        field = make_field(rng, height, width, block, mode)
        expected = reference_motion_compensated_blend(
            current, previous, field, **BLEND
        )
        frames = [current] + ([current.astype(np.uint8)] if kind == "uint8" else [])
        for frame in frames:
            got = motion_compensated_blend(frame, previous, field, backend="c", **BLEND)
            assert np.array_equal(got, expected)
        out = np.empty((height, width + 3), dtype=np.float64)[:, :width]
        motion_compensated_blend(current, previous, field, backend="c", out=out, **BLEND)
        assert np.array_equal(out, expected)


class TestBoxSum:
    """SAT fast path vs the nine-shift reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(2, 24),
        width=st.integers(2, 24),
        kind=st.sampled_from(FRAME_KINDS),
    )
    def test_matches_reference(self, seed, height, width, kind):
        rng = np.random.default_rng(seed)
        image = make_frame(rng, height, width, kind)
        expected = reference_box_sum_3x3(image)
        assert np.array_equal(box_sum_3x3(image), expected)

    def test_integer_dtype_rides_sat(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (17, 23)).astype(np.uint8)
        expected = reference_box_sum_3x3(image)
        assert np.array_equal(box_sum_3x3(image), expected)

    def test_out_buffer_reuse(self):
        rng = np.random.default_rng(4)
        out = np.empty((12, 15), dtype=np.float64)
        for kind in FRAME_KINDS:
            image = make_frame(rng, 12, 15, kind)
            got = box_sum_3x3(image, out=out)
            assert got is out
            assert np.array_equal(out, reference_box_sum_3x3(image))


class TestDemosaic:
    """Mask-based bilinear demosaic vs the reference."""

    @staticmethod
    def rggb_map(height: int, width: int) -> np.ndarray:
        channel_map = np.empty((height, width), dtype=np.int64)
        channel_map[0::2, 0::2] = 0
        channel_map[0::2, 1::2] = 1
        channel_map[1::2, 0::2] = 1
        channel_map[1::2, 1::2] = 2
        return channel_map

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(4, 20),
        width=st.integers(4, 20),
        kind=st.sampled_from(FRAME_KINDS),
    )
    def test_matches_reference(self, seed, height, width, kind):
        rng = np.random.default_rng(seed)
        bayer = make_frame(rng, height, width, kind)
        channel_map = self.rggb_map(height, width)
        expected = reference_bilinear_demosaic(bayer, channel_map)
        assert np.array_equal(bilinear_demosaic(bayer, channel_map), expected)


class TestQuantize:
    """The magic-constant in-range quantizer vs the mul/rint/clip/div path."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        frac_bits=st.sampled_from([0, 2, 4, 6]),
        int_bits=st.sampled_from([8, 10]),
    )
    def test_assume_in_range_matches_general(self, seed, frac_bits, int_bits):
        fmt = FixedPointFormat(int_bits=int_bits, frac_bits=frac_bits)
        rng = np.random.default_rng(seed)
        step = 1.0 / fmt.scale
        values = np.concatenate(
            [
                rng.uniform(0.0, fmt.max_value, 2048),
                # Exact half-step ties: the round-to-nearest-even cases.
                (rng.integers(0, fmt.scale * (1 << int_bits) - 1, 256) + 0.5) * step,
                np.array([0.0, fmt.max_value]),
            ]
        )
        expected = fmt.quantize(values)
        assert np.array_equal(fmt.quantize(values, assume_in_range=True), expected)
        out = np.empty_like(values)
        got = fmt.quantize(values, out=out, assume_in_range=True)
        assert got is out
        assert np.array_equal(out, expected)
        aliased = values.copy()
        fmt.quantize(aliased, out=aliased, assume_in_range=True)
        assert np.array_equal(aliased, expected)


class TestEdgePadPooled:
    """Pooled edge replication == ``np.pad(mode="edge")``, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        pad=st.integers(1, 7),
        height=st.integers(2, 20),
        width=st.integers(2, 20),
        dtype=st.sampled_from(["uint8", "float64"]),
    )
    def test_matches_np_pad(self, seed, pad, height, width, dtype):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, (height, width)).astype(dtype)
        pool = KernelScratch()
        padded = _edge_pad_pooled(frame, pad, pool)
        assert np.array_equal(padded, np.pad(frame, pad, mode="edge"))
        # The pool hands back the same pages for a same-geometry frame.
        second = rng.integers(0, 256, (height, width)).astype(dtype)
        repadded = _edge_pad_pooled(second, pad, pool)
        assert repadded is padded
        assert np.array_equal(repadded, np.pad(second, pad, mode="edge"))


class TestRoiStatisticsBatch:
    """The extrapolator's batch ROI query == one-at-a-time queries."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_matches_individual_queries(self, seed):
        rng = np.random.default_rng(seed)
        height, width, block = 64, 96, 8
        field = make_field(rng, height, width, block, "dense")
        fresh = MotionField(
            field.vectors.copy(), field.sad.copy(), field.grid,
            search_range=field.search_range,
        )
        rois = [
            BoundingBox(
                x=float(rng.uniform(-10, width)),
                y=float(rng.uniform(-10, height)),
                width=float(rng.uniform(1, 50)),
                height=float(rng.uniform(1, 50)),
            )
            for _ in range(6)
        ]
        batch = field.roi_statistics_batch(rois)
        expected = reference_roi_statistics(fresh, rois)
        assert len(batch) == len(expected)
        for (motion, confidence), (ref_motion, ref_confidence) in zip(batch, expected):
            assert motion.u == ref_motion.u
            assert motion.v == ref_motion.v
            assert confidence == ref_confidence

    def test_confidence_is_memoized(self):
        rng = np.random.default_rng(5)
        field = make_field(rng, 32, 32, 8, "dense")
        first = field.confidence()
        assert field.confidence() is first


class TestEnergyModelUnchanged:
    """Satellite guard: the perf work must not move the energy model.

    Runs a pinned deterministic session (192x108, 24 frames, seed 7, EW=4,
    mdnet backend) and folds its telemetry through the measured-energy path.
    Every value below was captured on the pre-optimization build and
    verified identical on the optimized one — any future kernel change that
    perturbs frames, motion fields, ROI trajectories or the op accounting
    shows up here as an energy drift.
    """

    def test_fold_energy_breakdown_pinned(self):
        from repro.core.backends import tracking_backend_for
        from repro.core.spec import PipelineSpec
        from repro.harness.experiments import fold_energy_breakdown
        from repro.nn.models import build_yolo_v2
        from repro.soc.soc import VisionSoC
        from repro.video.synthetic import SequenceConfig, SequenceGenerator

        sequence = SequenceGenerator(
            SequenceConfig(
                name="pinned",
                frame_width=192,
                frame_height=108,
                num_frames=24,
                seed=7,
            )
        ).generate()
        spec = PipelineSpec(extrapolation_window=4)
        pipeline = spec.build(tracking_backend_for("mdnet", seed=7))
        session = pipeline.open_session(source=sequence)
        for _, frame in sequence.iter_frames():
            session.submit(frame)
        telemetry = session.take_telemetry()
        session.finish()

        kinds = "".join(
            "E" if record.kind.name == "EXTRAPOLATION" else "I"
            for record in telemetry
        )
        assert kinds == "IEEEIEEEIEEEIEEEIEEEIEEE"
        assert telemetry[0].motion_ops == 0.0
        assert all(record.motion_ops == 537600.0 for record in telemetry[1:])
        pinned_extrapolation_ops = [
            0.0,
            1946.6978422358493,
            1967.0792339554764,
            1967.1261866003738,
            1967.1149817273526,
            1987.6088307198233,
        ]
        for record, pinned in zip(telemetry, pinned_extrapolation_ops):
            assert record.extrapolation_ops == pytest.approx(pinned, rel=1e-9)

        breakdown = fold_energy_breakdown(
            VisionSoC(),
            build_yolo_v2(),
            [SimpleNamespace(telemetry=telemetry)],
            label="pinned",
        )
        assert breakdown.num_frames == 24
        assert breakdown.inference_rate == pytest.approx(0.25)
        assert breakdown.total_traffic_bytes == 4297709094
        assert breakdown.total_ops == pytest.approx(313462144800.0, rel=1e-9)
        assert breakdown.frontend_energy_j == pytest.approx(0.13473, rel=1e-9)
        assert breakdown.memory_energy_j == pytest.approx(
            0.24939690923000002, rel=1e-9
        )
        assert breakdown.backend_energy_j == pytest.approx(
            0.207568296064, rel=1e-9
        )
        assert breakdown.cpu_energy_j == 0.0
