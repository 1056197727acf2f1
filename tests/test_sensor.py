"""Tests for the camera sensor model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.isp.sensor import CameraSensor, SensorConfig, bayer_channel_map


class TestBayerLayout:
    def test_rggb_pattern(self):
        channel_map = bayer_channel_map(4, 4)
        assert channel_map[0, 0] == 0  # R
        assert channel_map[0, 1] == 1  # G
        assert channel_map[1, 0] == 1  # G
        assert channel_map[1, 1] == 2  # B

    def test_channel_fractions(self):
        channel_map = bayer_channel_map(64, 64)
        total = channel_map.size
        assert (channel_map == 0).sum() == total // 4
        assert (channel_map == 1).sum() == total // 2
        assert (channel_map == 2).sum() == total // 4


class TestSensorConfig:
    def test_pixels_per_frame(self):
        assert SensorConfig().pixels_per_frame == 1920 * 1080


class TestCapture:
    def test_capture_shape_and_range(self, small_sequence):
        sensor = CameraSensor(seed=1)
        raw = sensor.capture(small_sequence.frame(0), frame_index=0)
        assert raw.bayer.shape == small_sequence.frame(0).shape
        assert raw.bayer.min() >= 0.0
        assert raw.bayer.max() <= 255.0
        assert raw.width == small_sequence.width
        assert raw.height == small_sequence.height

    def test_capture_rejects_non_2d(self):
        sensor = CameraSensor()
        with pytest.raises(ValueError):
            sensor.capture(np.zeros((4, 4, 3)), 0)

    def test_noise_is_applied(self, small_sequence):
        noisy_sensor = CameraSensor(seed=2)
        clean_config = SensorConfig(read_noise=0.0, shot_noise_scale=0.0, dead_pixel_fraction=0.0)
        clean_sensor = CameraSensor(clean_config, seed=2)
        frame = small_sequence.frame(0)
        noisy = noisy_sensor.capture(frame, 0)
        clean = clean_sensor.capture(frame, 0)
        assert np.abs(noisy.bayer - clean.bayer).mean() > 0.1

    def test_dead_pixels_are_persistent(self, small_sequence):
        config = SensorConfig(dead_pixel_fraction=5e-3, read_noise=0.0, shot_noise_scale=0.0)
        sensor = CameraSensor(config, seed=3)
        bright = np.full_like(small_sequence.frame(0), 200, dtype=np.uint8)
        first = sensor.capture(bright, 0)
        second = sensor.capture(bright, 1)
        dead_first = set(zip(*np.where(first.bayer == 0.0)))
        dead_second = set(zip(*np.where(second.bayer == 0.0)))
        assert dead_first
        assert dead_first == dead_second
        rows, cols = sensor.dead_pixel_coordinates
        assert len(rows) == len(cols) > 0

    def test_frames_captured_counter(self, small_sequence):
        sensor = CameraSensor(seed=4)
        for index in range(3):
            sensor.capture(small_sequence.frame(index), index)
        assert sensor.frames_captured == 3

    def test_capture_is_deterministic_per_seed(self, small_sequence):
        a = CameraSensor(seed=9).capture(small_sequence.frame(0), 0)
        b = CameraSensor(seed=9).capture(small_sequence.frame(0), 0)
        assert np.array_equal(a.bayer, b.bayer)
