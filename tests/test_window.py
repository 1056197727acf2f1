"""Tests for the extrapolation-window controllers (constant and adaptive)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.window import AdaptiveWindowController, ConstantWindowController


class TestConstantWindow:
    def test_window_one_always_infers(self):
        controller = ConstantWindowController(1)
        assert controller.should_infer(0)
        assert controller.should_infer(5)

    def test_window_four_pattern(self):
        controller = ConstantWindowController(4)
        # After an I-frame, three E-frames pass before the next inference.
        assert not controller.should_infer(0)
        assert not controller.should_infer(1)
        assert not controller.should_infer(2)
        assert controller.should_infer(3)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ConstantWindowController(0)

    def test_feedback_is_ignored(self):
        controller = ConstantWindowController(4)
        controller.observe_disagreement(1.0)
        assert controller.current_window == 4

    def test_name(self):
        assert ConstantWindowController(8).name == "EW-8"


class TestAdaptiveWindowValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveWindowController(min_window=0)
        with pytest.raises(ValueError):
            AdaptiveWindowController(initial_window=10, max_window=8)
        with pytest.raises(ValueError):
            AdaptiveWindowController(patience=0)
        with pytest.raises(ValueError):
            AdaptiveWindowController(disagreement_threshold=2.0)


class TestAdaptiveWindowBehaviour:
    def test_shrinks_on_large_disagreement(self):
        controller = AdaptiveWindowController(initial_window=4, disagreement_threshold=0.3)
        controller.observe_disagreement(0.8)
        assert controller.current_window == 3
        controller.observe_disagreement(0.8)
        controller.observe_disagreement(0.8)
        controller.observe_disagreement(0.8)
        assert controller.current_window == controller.min_window

    def test_grows_after_sustained_agreement(self):
        controller = AdaptiveWindowController(
            initial_window=2, disagreement_threshold=0.3, patience=2, max_window=4
        )
        controller.observe_disagreement(0.1)
        assert controller.current_window == 2  # one good observation is not enough
        controller.observe_disagreement(0.1)
        assert controller.current_window == 3
        controller.observe_disagreement(0.1)
        controller.observe_disagreement(0.1)
        assert controller.current_window == 4
        controller.observe_disagreement(0.1)
        controller.observe_disagreement(0.1)
        assert controller.current_window == 4  # capped at max_window

    def test_disagreement_resets_good_streak(self):
        controller = AdaptiveWindowController(
            initial_window=2, disagreement_threshold=0.3, patience=2
        )
        controller.observe_disagreement(0.1)
        controller.observe_disagreement(0.9)  # resets streak and shrinks
        assert controller.current_window == 1
        controller.observe_disagreement(0.1)
        assert controller.current_window == 1  # streak restarted, needs two

    def test_should_infer_follows_current_window(self):
        controller = AdaptiveWindowController(initial_window=3)
        assert not controller.should_infer(0)
        assert not controller.should_infer(1)
        assert controller.should_infer(2)

    def test_state_stays_bounded(self):
        """A long-lived stream's controller does not grow per I-frame."""
        controller = AdaptiveWindowController()
        controller.observe_disagreement(0.2)
        size_after_one = len(pickle.dumps(controller))
        for index in range(10_000):
            controller.observe_disagreement(0.6 if index % 3 else 0.1)
        assert len(pickle.dumps(controller)) <= size_after_one + 64
        assert controller.observations == 10_001

    def test_name(self):
        assert AdaptiveWindowController().name == "EW-A"
