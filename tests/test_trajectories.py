"""Tests for the synthetic object trajectories."""

from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from repro.video.trajectories import (
    BouncingTrajectory,
    CompositeTrajectory,
    LinearTrajectory,
    SinusoidalTrajectory,
)


class TestLinearTrajectory:
    def test_constant_velocity(self):
        trajectory = LinearTrajectory(10.0, 5.0, 2.0, -1.0)
        assert trajectory.position(0) == (10.0, 5.0)
        assert trajectory.position(4) == (18.0, 1.0)

    def test_per_frame_displacement_is_constant(self):
        trajectory = LinearTrajectory(0.0, 0.0, 1.5, 0.5)
        deltas = set()
        for t in range(1, 10):
            x0, y0 = trajectory.position(t - 1)
            x1, y1 = trajectory.position(t)
            deltas.add((round(x1 - x0, 9), round(y1 - y0, 9)))
        assert deltas == {(1.5, 0.5)}


class TestSinusoidalTrajectory:
    def test_periodicity(self):
        trajectory = SinusoidalTrajectory(50.0, 50.0, period_frames=20.0)
        x0, y0 = trajectory.position(0)
        x1, y1 = trajectory.position(20)
        assert x1 == pytest.approx(x0, abs=1e-6)
        assert y1 == pytest.approx(y0, abs=1e-6)

    def test_amplitude_bounds(self):
        trajectory = SinusoidalTrajectory(
            50.0, 50.0, amplitude_x=10.0, amplitude_y=4.0, period_frames=16.0
        )
        xs = [trajectory.position(t)[0] for t in range(64)]
        ys = [trajectory.position(t)[1] for t in range(64)]
        assert max(xs) <= 60.0 + 1e-9 and min(xs) >= 40.0 - 1e-9
        assert max(ys) <= 54.0 + 1e-9 and min(ys) >= 46.0 - 1e-9

    def test_drift_accumulates(self):
        trajectory = SinusoidalTrajectory(0.0, 0.0, drift_x=1.0, period_frames=10.0)
        assert trajectory.position(100)[0] == pytest.approx(100.0, abs=10.0)


class TestBouncingTrajectory:
    def test_stays_within_bounds(self):
        trajectory = BouncingTrajectory(30.0, 20.0, 7.0, 5.0, 100.0, 60.0, margin=5.0)
        for t in range(200):
            x, y = trajectory.position(t)
            assert 5.0 - 1e-9 <= x <= 95.0 + 1e-9
            assert 5.0 - 1e-9 <= y <= 55.0 + 1e-9

    def test_moves_before_first_bounce(self):
        trajectory = BouncingTrajectory(10.0, 10.0, 2.0, 0.0, 100.0, 60.0)
        assert trajectory.position(3) == (16.0, 10.0)

    def test_degenerate_bounds_pin_position(self):
        trajectory = BouncingTrajectory(10.0, 10.0, 2.0, 2.0, 10.0, 10.0, margin=10.0)
        x, y = trajectory.position(50)
        assert x == 10.0 and y == 10.0


class TestCompositeTrajectory:
    def test_follows_parent_with_offset(self):
        parent = LinearTrajectory(0.0, 0.0, 1.0, 0.0)
        part = CompositeTrajectory(parent, offset_x=5.0, offset_y=-2.0)
        assert part.position(10) == (15.0, -2.0)

    def test_local_oscillation_bounded(self):
        parent = LinearTrajectory(0.0, 0.0, 0.0, 0.0)
        part = CompositeTrajectory(
            parent, local_amplitude_x=3.0, local_amplitude_y=1.0, local_period_frames=8.0
        )
        xs = [part.position(t)[0] for t in range(32)]
        assert max(xs) <= 3.0 + 1e-9
        assert min(xs) >= -3.0 - 1e-9


@given(
    start=st.floats(0, 100, allow_nan=False),
    velocity=st.floats(-10, 10, allow_nan=False),
    frames=st.integers(min_value=0, max_value=500),
)
def test_bouncing_never_escapes(start, velocity, frames):
    trajectory = BouncingTrajectory(start, start, velocity, -velocity, 120.0, 120.0)
    x, y = trajectory.position(frames)
    assert -1e-6 <= x <= 120.0 + 1e-6
    assert -1e-6 <= y <= 120.0 + 1e-6
