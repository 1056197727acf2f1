"""Tests for the motion-extrapolation algorithm (Eqs. 1-3, sub-ROIs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.extrapolation import (
    ExtrapolationConfig,
    MotionExtrapolator,
    RoiMotionState,
)
from repro.core.geometry import BoundingBox, MotionVector
from repro.core.types import Detection
from repro.motion.motion_field import MacroblockGrid, MotionField


GRID = MacroblockGrid(frame_width=128, frame_height=96, block_size=16)


def _field(motion: MotionVector, sad: float = 0.0) -> MotionField:
    return MotionField.uniform(GRID, motion, sad_value=sad)


class TestConfigValidation:
    def test_bad_grid(self):
        with pytest.raises(ValueError):
            ExtrapolationConfig(sub_roi_grid=(0, 2))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            ExtrapolationConfig(confidence_threshold=1.5)
        with pytest.raises(ValueError):
            ExtrapolationConfig(low_confidence_beta=-0.1)


class TestSingleRoiExtrapolation:
    def test_uniform_motion_moves_roi_exactly(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 30, 20)
        result = extrapolator.extrapolate_roi(roi, _field(MotionVector(3.0, -2.0)))
        assert result.box.center.x == pytest.approx(roi.center.x + 3.0)
        assert result.box.center.y == pytest.approx(roi.center.y - 2.0)
        assert result.confidence == pytest.approx(1.0)

    def test_zero_motion_keeps_roi(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 30, 20)
        result = extrapolator.extrapolate_roi(roi, _field(MotionVector(0.0, 0.0)))
        assert result.box.iou(roi) == pytest.approx(1.0)

    def test_low_confidence_blends_with_previous_motion(self):
        """Eq. 3: with a noisy (high-SAD) field, beta falls back to 0.5."""
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 32, 32)
        noisy_field = _field(MotionVector(8.0, 0.0), sad=0.8 * 255 * 256)
        state = RoiMotionState(filtered_motion=MotionVector(0.0, 0.0))
        result = extrapolator.extrapolate_roi(roi, noisy_field, state)
        # beta = 0.5 -> blended motion is half of the observed 8 px.
        assert result.box.center.x - roi.center.x == pytest.approx(4.0, abs=0.1)

    def test_high_confidence_trusts_current_motion(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 32, 32)
        clean_field = _field(MotionVector(8.0, 0.0), sad=0.0)
        state = RoiMotionState(filtered_motion=MotionVector(-8.0, 0.0))
        result = extrapolator.extrapolate_roi(roi, clean_field, state)
        assert result.box.center.x - roi.center.x == pytest.approx(8.0, abs=0.1)

    def test_confidence_filter_can_be_disabled(self):
        config = ExtrapolationConfig(use_confidence_filter=False)
        extrapolator = MotionExtrapolator(config, frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 32, 32)
        noisy_field = _field(MotionVector(6.0, 0.0), sad=0.9 * 255 * 256)
        state = RoiMotionState(filtered_motion=MotionVector(0.0, 0.0))
        result = extrapolator.extrapolate_roi(roi, noisy_field, state)
        # Without the filter the raw Eq. 1 average is applied unchanged.
        assert result.box.center.x - roi.center.x == pytest.approx(6.0, abs=0.1)

    def test_state_is_updated_recursively(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 32, 32)
        state = RoiMotionState()
        extrapolator.extrapolate_roi(roi, _field(MotionVector(4.0, 2.0)), state)
        assert state.filtered_motion.u == pytest.approx(4.0, abs=0.1)
        assert state.filtered_motion.v == pytest.approx(2.0, abs=0.1)

    def test_clipping_keeps_roi_inside_frame(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(110, 80, 16, 14)
        result = extrapolator.extrapolate_roi(roi, _field(MotionVector(7.0, 7.0)))
        assert result.box.right <= 128 + 1e-6
        assert result.box.bottom <= 96 + 1e-6

    def test_clipping_can_be_disabled(self):
        config = ExtrapolationConfig(clip_to_frame=False)
        extrapolator = MotionExtrapolator(config, frame_width=128, frame_height=96)
        roi = BoundingBox(110, 80, 16, 14)
        result = extrapolator.extrapolate_roi(roi, _field(MotionVector(7.0, 7.0)))
        assert result.box.right > 128


class TestDeformationHandling:
    def _two_speed_field(self) -> MotionField:
        """Left half of the frame moves right by 2, right half by 6."""
        vectors = np.zeros((GRID.rows, GRID.cols, 2))
        vectors[:, : GRID.cols // 2, 0] = 2.0
        vectors[:, GRID.cols // 2 :, 0] = 6.0
        return MotionField(vectors, np.zeros((GRID.rows, GRID.cols)), GRID)

    def test_sub_rois_stretch_the_box(self):
        """Independently moving halves must widen the merged ROI."""
        config = ExtrapolationConfig(sub_roi_grid=(1, 2))
        extrapolator = MotionExtrapolator(config, frame_width=128, frame_height=96)
        roi = BoundingBox(32, 32, 64, 32)
        result = extrapolator.extrapolate_roi(roi, self._two_speed_field())
        assert result.box.width > roi.width

    def test_single_roi_mode_translates_rigidly(self):
        config = ExtrapolationConfig(sub_roi_grid=(1, 1))
        extrapolator = MotionExtrapolator(config, frame_width=128, frame_height=96)
        roi = BoundingBox(32, 32, 64, 32)
        result = extrapolator.extrapolate_roi(roi, self._two_speed_field())
        assert result.box.width == pytest.approx(roi.width)


class TestMultiRoiExtrapolation:
    def test_detections_keep_metadata_and_gain_flag(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        detections = [
            Detection(box=BoundingBox(10, 10, 20, 20), label="car", score=0.9, object_id=3),
            Detection(box=BoundingBox(60, 40, 20, 20), label="person", score=0.8, object_id=None),
        ]
        states = {}
        moved = extrapolator.extrapolate_detections(
            detections, _field(MotionVector(2.0, 1.0)), states
        )
        assert len(moved) == 2
        assert all(d.extrapolated for d in moved)
        assert moved[0].label == "car" and moved[0].object_id == 3
        assert moved[0].score == pytest.approx(0.9)
        assert len(states) == 2

    def test_states_reused_across_frames(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        detections = [Detection(box=BoundingBox(10, 10, 20, 20), object_id=1)]
        states = {}
        extrapolator.extrapolate_detections(detections, _field(MotionVector(2.0, 0.0)), states)
        first_state = states[1].filtered_motion
        extrapolator.extrapolate_detections(detections, _field(MotionVector(2.0, 0.0)), states)
        assert states[1].filtered_motion.u == pytest.approx(first_state.u, abs=0.5)


class TestStateLifecycle:
    def test_stale_anonymous_states_are_pruned_on_count_change(self):
        """A shrinking anonymous detection list must not leak filter states."""
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        two = [
            Detection(box=BoundingBox(10, 10, 20, 20)),
            Detection(box=BoundingBox(60, 40, 20, 20)),
        ]
        states = {}
        extrapolator.extrapolate_detections(two, _field(MotionVector(2.0, 0.0)), states)
        assert set(states) == {-1, -2}
        one = [Detection(box=BoundingBox(90, 20, 20, 20))]
        extrapolator.extrapolate_detections(one, _field(MotionVector(2.0, 0.0)), states)
        assert set(states) == {-1}

    def test_new_anonymous_detection_does_not_inherit_foreign_motion(self):
        """The -(index+1) key of a fresh detection set must start clean."""
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        states = {}
        fast = [Detection(box=BoundingBox(10, 10, 20, 20))]
        for _ in range(3):
            extrapolator.extrapolate_detections(fast, _field(MotionVector(7.0, 0.0)), states)
        # Detection count changes: the old state keyed -1 belonged to the
        # fast object and must not seed the two new objects' filters.
        replacement = [
            Detection(box=BoundingBox(30, 30, 20, 20)),
            Detection(box=BoundingBox(70, 50, 20, 20)),
        ]
        states.clear()  # what the pipeline does at the I-frame
        noisy = _field(MotionVector(0.0, 0.0), sad=0.95 * 255 * 256)
        moved = extrapolator.extrapolate_detections(replacement, noisy, states)
        # Low confidence blends with the (fresh, zero) prior: the boxes must
        # stay put instead of inheriting the fast object's 7 px/frame.
        for before, after in zip(replacement, moved):
            assert after.box.center.x == pytest.approx(before.box.center.x, abs=0.5)

    def test_identified_states_survive_while_their_id_lives(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        states = {}
        detections = [
            Detection(box=BoundingBox(10, 10, 20, 20), object_id=7),
            Detection(box=BoundingBox(60, 40, 20, 20), object_id=9),
        ]
        extrapolator.extrapolate_detections(detections, _field(MotionVector(1.0, 0.0)), states)
        assert set(states) == {7, 9}
        extrapolator.extrapolate_detections(
            detections[:1], _field(MotionVector(1.0, 0.0)), states
        )
        assert set(states) == {7}


class TestComputeAccounting:
    def test_typical_roi_costs_about_10k_ops(self):
        """Sec. 3.2: a 100x50 ROI needs roughly 10 K fixed-point operations."""
        extrapolator = MotionExtrapolator()
        ops = extrapolator.operations_per_roi(BoundingBox(0, 0, 100, 50))
        assert 2_000 <= ops <= 20_000

    def test_total_operations_accumulate(self):
        extrapolator = MotionExtrapolator(frame_width=128, frame_height=96)
        roi = BoundingBox(30, 30, 30, 20)
        extrapolator.extrapolate_roi(roi, _field(MotionVector(1.0, 0.0)))
        extrapolator.extrapolate_roi(roi, _field(MotionVector(1.0, 0.0)))
        assert extrapolator.total_operations == pytest.approx(
            2 * extrapolator.operations_per_roi(roi)
        )


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@given(
    u=st.floats(-7, 7, allow_nan=False),
    v=st.floats(-7, 7, allow_nan=False),
    x=st.floats(10, 80, allow_nan=False),
    y=st.floats(10, 60, allow_nan=False),
)
def test_extrapolated_box_preserves_size_under_uniform_motion(u, v, x, y):
    extrapolator = MotionExtrapolator()
    roi = BoundingBox(x, y, 24, 18)
    result = extrapolator.extrapolate_roi(roi, _field(MotionVector(u, v)))
    assert result.box.width == pytest.approx(roi.width, abs=1e-6)
    assert result.box.height == pytest.approx(roi.height, abs=1e-6)


@given(
    sad_fraction=st.floats(0, 1, allow_nan=False),
    u=st.floats(-7, 7, allow_nan=False),
)
def test_filtered_motion_never_exceeds_observed_or_prior(sad_fraction, u):
    """The Eq. 3 blend is a convex combination of current and prior motion."""
    extrapolator = MotionExtrapolator()
    roi = BoundingBox(40, 30, 32, 32)
    field = _field(MotionVector(u, 0.0), sad=sad_fraction * 255 * 256)
    state = RoiMotionState(filtered_motion=MotionVector(0.0, 0.0))
    result = extrapolator.extrapolate_roi(roi, field, state)
    displacement = result.box.center.x - roi.center.x
    low, high = min(0.0, u), max(0.0, u)
    assert low - 1e-6 <= displacement <= high + 1e-6


def _hex(*values):
    """Exact float representations (tell -0.0 from 0.0)."""
    return tuple(float(value).hex() for value in values)


def _reference_extrapolate(extrapolator, roi, field, state):
    """One ROI, one frame, through the geometry primitives: the numpy
    statistics, ``MotionVector.blend`` (Eq. 3), ``BoundingBox.shift`` and
    ``BoundingBox.union_of``.  The extrapolator runs the same arithmetic on
    plain floats."""
    config = extrapolator.config
    rows, cols = config.sub_roi_grid
    subs = roi.split(rows, cols) if (rows, cols) != (1, 1) else [roi]
    moved, motions, confidences = [], [], []
    for sub in subs:
        average, confidence = field.roi_statistics(sub)
        motion = average
        if config.use_confidence_filter:
            beta = (
                confidence
                if confidence > config.confidence_threshold
                else config.low_confidence_beta
            )
            motion = average.blend(state.filtered_motion, beta)
        moved.append(sub.shift(motion))
        motions.append(motion)
        confidences.append(confidence)
    merged = BoundingBox.union_of(moved)
    if config.clip_to_frame and extrapolator.frame_width and extrapolator.frame_height:
        clipped = merged.clip(extrapolator.frame_width, extrapolator.frame_height)
        if not clipped.is_empty():
            merged = clipped
    state.filtered_motion = MotionVector(
        sum(m.u for m in motions) / len(motions), sum(m.v for m in motions) / len(motions)
    )
    state.last_confidence = sum(confidences) / len(confidences)
    return merged


@pytest.mark.parametrize("kernel_backend", ["numpy", "c"])
@pytest.mark.parametrize(
    "config",
    [
        ExtrapolationConfig(),
        ExtrapolationConfig(sub_roi_grid=(1, 1)),
        ExtrapolationConfig(sub_roi_grid=(3, 2), use_confidence_filter=False),
        ExtrapolationConfig(clip_to_frame=False),
    ],
    ids=["default", "1x1", "3x2-unfiltered", "unclipped"],
)
def test_extrapolation_matches_the_geometry_primitives(config, kernel_backend):
    """Twelve frames of random fields: the same boxes and filter states,
    bit for bit, as the object-by-object reference."""
    rng = np.random.default_rng(21)
    extrapolator = MotionExtrapolator(
        config, frame_width=128, frame_height=96, kernel_backend=kernel_backend
    )
    rois = [
        BoundingBox(30.25, 20.5, 40.0, 28.0),
        BoundingBox(-12.0, 70.0, 30.0, 40.0),
        BoundingBox(100.0, 5.0, 0.0, 12.0),
    ]
    states = [RoiMotionState() for _ in rois]
    reference_states = [RoiMotionState() for _ in rois]
    for _ in range(12):
        vectors = np.round(rng.normal(0.0, 3.0, (GRID.rows, GRID.cols, 2)), 1)
        sad = rng.uniform(0.0, 0.5 * 255 * 256, (GRID.rows, GRID.cols))
        field = MotionField(vectors, sad, GRID)
        expected = [
            _reference_extrapolate(extrapolator, roi, field, state)
            for roi, state in zip(rois, reference_states)
        ]
        got = [
            extrapolator.extrapolate_roi(roi, field, state).box
            for roi, state in zip(rois, states)
        ]
        assert [_hex(*box.as_xywh()) for box in got] == [
            _hex(*box.as_xywh()) for box in expected
        ]
        assert [_hex(*s.filtered_motion.as_tuple(), s.last_confidence) for s in states] == [
            _hex(*s.filtered_motion.as_tuple(), s.last_confidence) for s in reference_states
        ]
        rois = got
