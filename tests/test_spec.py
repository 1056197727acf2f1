"""Tests for the unified PipelineSpec."""

from __future__ import annotations

import argparse
from dataclasses import FrozenInstanceError

import pytest

from repro.core.backends import tracking_backend_for
from repro.core.spec import PipelineSpec, normalize_window
from repro.core.window import AdaptiveWindowController, ConstantWindowController
from repro.motion.block_matching import SearchPolicy, SearchStrategy


class TestNormalization:
    def test_adaptive_aliases(self):
        for alias in ("adaptive", "EW-A", "a", "Adaptive"):
            assert normalize_window(alias) == "adaptive"

    def test_numeric_strings_become_ints(self):
        assert normalize_window("4") == 4
        assert PipelineSpec(extrapolation_window="4").extrapolation_window == 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="window mode"):
            PipelineSpec(extrapolation_window="sometimes")

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSpec(extrapolation_window=0)
        with pytest.raises(ValueError):
            PipelineSpec(block_size=0)
        with pytest.raises(ValueError):
            PipelineSpec(search_range=-1)
        with pytest.raises(ValueError):
            PipelineSpec(search_policy="greedy")
        with pytest.raises(ValueError):
            PipelineSpec(kernel_backend="cython")
        with pytest.raises(ValueError):
            PipelineSpec(sub_roi_grid=(0, 2))
        with pytest.raises(ValueError):
            PipelineSpec(soc_config="vga")
        with pytest.raises(ValueError):
            PipelineSpec(extrapolation_host="gpu")

    def test_soc_surface(self):
        spec = PipelineSpec(soc_config="720p30", extrapolation_host="cpu")
        assert spec.extrapolation_on_cpu
        config = spec.soc_configuration()
        assert (config.frame_width, config.frame_height, config.frame_rate) == (
            1280,
            720,
            30.0,
        )
        soc = spec.vision_soc()
        assert soc.config.frame_period_s == pytest.approx(1.0 / 30.0)
        assert not PipelineSpec().extrapolation_on_cpu

    def test_sub_roi_grid_coerced_to_tuple(self):
        spec = PipelineSpec(sub_roi_grid=[3, 1])
        assert spec.sub_roi_grid == (3, 1)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            PipelineSpec().block_size = 8  # type: ignore[misc]


class TestFromKwargs:
    """The constructor takes the legacy ``build_pipeline`` keyword names."""

    def test_accepts_exactly_the_legacy_names(self):
        spec = PipelineSpec(
            extrapolation_window="adaptive",
            block_size=8,
            search_range=3,
            exhaustive_search=True,
            search_policy="histogram",
            sub_roi_grid=(1, 1),
            expose_motion_vectors=False,
        )
        assert spec.extrapolation_window == "adaptive"
        assert spec.block_size == 8
        assert spec.search_policy == "histogram"
        assert not spec.expose_motion_vectors

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="blok_size"):
            PipelineSpec(blok_size=8)  # type: ignore[call-arg]
        with pytest.raises(TypeError, match="blok_size"):
            PipelineSpec.from_preset("tuned-ci-energy", blok_size=8)


class TestCliRoundTrip:
    def _parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser()
        PipelineSpec.add_cli_options(parser)
        return parser

    @pytest.mark.parametrize(
        "spec",
        [
            PipelineSpec(),
            PipelineSpec(extrapolation_window="adaptive"),
            PipelineSpec(extrapolation_window=8, block_size=32, search_range=15),
            PipelineSpec(exhaustive_search=True, search_policy="full"),
            PipelineSpec(
                exhaustive_search=True,
                search_policy="histogram",
                kernel_backend="numpy",
            ),
            PipelineSpec(sub_roi_grid=(1, 1), expose_motion_vectors=False),
            PipelineSpec(soc_config="720p30", extrapolation_host="cpu"),
            PipelineSpec(soc_config="640x480@15"),
            PipelineSpec(frame_format="q8.8"),
            PipelineSpec(frame_format="float"),
        ],
    )
    def test_to_cli_args_round_trips(self, spec):
        args = self._parser().parse_args(spec.to_cli_args())
        assert PipelineSpec.from_cli_args(args) == spec

    def test_default_spec_emits_no_flags(self):
        assert PipelineSpec().to_cli_args() == []

    def test_without_window_flag(self):
        parser = argparse.ArgumentParser()
        PipelineSpec.add_cli_options(parser, include_window=False)
        args = parser.parse_args(["--block-size", "8"])
        spec = PipelineSpec.from_cli_args(args)
        assert spec.block_size == 8
        assert spec.extrapolation_window == PipelineSpec().extrapolation_window

    def test_malformed_grid_rejected(self):
        args = self._parser().parse_args(["--sub-roi-grid", "2by2"])
        with pytest.raises(ValueError, match="sub-roi-grid"):
            PipelineSpec.from_cli_args(args)


class TestCacheKey:
    def test_equal_specs_share_a_key(self):
        assert PipelineSpec(extrapolation_window="a").cache_key() == PipelineSpec(
            extrapolation_window="adaptive"
        ).cache_key()

    def test_every_field_participates(self):
        base = PipelineSpec()
        variants = [
            PipelineSpec(extrapolation_window=4),
            PipelineSpec(block_size=8),
            PipelineSpec(search_range=3),
            PipelineSpec(exhaustive_search=True),
            PipelineSpec(search_policy="full"),
            PipelineSpec(kernel_backend="numpy"),
            PipelineSpec(sub_roi_grid=(1, 1)),
            PipelineSpec(expose_motion_vectors=False),
            PipelineSpec(soc_config="1080p30"),
            PipelineSpec(extrapolation_host="cpu"),
            PipelineSpec(frame_format="q8.8"),
            PipelineSpec(frame_format="float"),
        ]
        keys = {spec.cache_key() for spec in variants}
        assert len(keys) == len(variants)
        assert base.cache_key() not in keys

    def test_key_is_hashable(self):
        {PipelineSpec().cache_key(): 1}


class TestBuild:
    def test_build_propagates_every_knob(self):
        spec = PipelineSpec(
            extrapolation_window=3,
            block_size=32,
            search_range=5,
            exhaustive_search=True,
            search_policy="histogram",
            kernel_backend="numpy",
            sub_roi_grid=(1, 2),
            expose_motion_vectors=False,
        )
        pipeline = spec.build(tracking_backend_for("mdnet"))
        config = pipeline.config
        assert config.block_matching.block_size == 32
        assert config.block_matching.search_range == 5
        assert config.block_matching.strategy is SearchStrategy.EXHAUSTIVE
        assert config.block_matching.search_policy is SearchPolicy.HISTOGRAM
        assert config.block_matching.kernel_backend == "numpy"
        assert config.extrapolation.sub_roi_grid == (1, 2)
        assert not config.expose_motion_vectors
        assert isinstance(pipeline.window_controller, ConstantWindowController)
        assert pipeline.window_controller.current_window == 3

    def test_adaptive_controller(self):
        pipeline = PipelineSpec(extrapolation_window="adaptive").build(
            tracking_backend_for("mdnet")
        )
        assert isinstance(pipeline.window_controller, AdaptiveWindowController)

    def test_describe(self):
        assert PipelineSpec().describe() == "EW-2/b16/r7/tss"
        assert (
            PipelineSpec(
                extrapolation_window="adaptive", exhaustive_search=True
            ).describe()
            == "EW-A/b16/r7/es/pruned"
        )

    def test_describe_marks_non_default_backend(self):
        assert PipelineSpec().kernel_backend == "c"
        assert PipelineSpec(kernel_backend="numpy").describe() == "EW-2/b16/r7/tss/k:numpy"
        assert "/k:" not in PipelineSpec().describe()

    def test_with_window(self):
        spec = PipelineSpec(block_size=8)
        swept = spec.with_window("adaptive")
        assert swept.extrapolation_window == "adaptive"
        assert swept.block_size == 8
        assert spec.extrapolation_window == 2  # original untouched


class TestExecutionKnobs:
    """The transport selects how frames reach the shards, never what they compute."""

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown transport"):
            PipelineSpec(transport="carrier-pigeon")
        # The worker count is each tool's --workers, not a spec field.
        with pytest.raises(TypeError, match="workers"):
            PipelineSpec(workers=2)

    def test_excluded_from_cache_key(self):
        base = PipelineSpec(extrapolation_window=4)
        sharded = PipelineSpec(extrapolation_window=4, transport="shm")
        assert base.cache_key() == sharded.cache_key()
        assert base.describe() == sharded.describe()
        # ...but algorithmic fields still split the key.
        assert base.cache_key() != PipelineSpec(extrapolation_window=2).cache_key()

    def test_cli_roundtrip(self):
        spec = PipelineSpec(extrapolation_window=4, transport="shm")
        parser = argparse.ArgumentParser()
        PipelineSpec.add_cli_options(parser)
        args = parser.parse_args(spec.to_cli_args())
        assert PipelineSpec.from_cli_args(args) == spec
        with pytest.raises(SystemExit):
            parser.parse_args(["--exec-workers", "2"])

    def test_build_installs_execution_spec(self):
        pipeline = PipelineSpec(transport="shm").build(tracking_backend_for("mdnet"))
        assert pipeline.transport == "shm"
        assert PipelineSpec().build(tracking_backend_for("mdnet")).transport == "auto"

    def test_build_pipeline_shim_is_gone(self):
        with pytest.raises(ImportError):
            from repro.core.pipeline import build_pipeline  # noqa: F401


class TestFrameFormat:
    """The fixed-point frame-format knob (a vision knob: it changes outputs)."""

    def test_spelling_is_canonicalized(self):
        assert PipelineSpec(frame_format="Q8.8").frame_format == "q8.8"
        assert PipelineSpec(frame_format="FLOAT").frame_format == "float"

    def test_default_matches_pipeline_default(self):
        from repro.isp.framebuffer import DEFAULT_FRAME_FORMAT, spell_frame_format

        assert PipelineSpec().frame_format == spell_frame_format(DEFAULT_FRAME_FORMAT)

    def test_malformed_format_rejected(self):
        with pytest.raises(ValueError, match="frame format"):
            PipelineSpec(frame_format="8bit")

    def test_euphrates_config_receives_parsed_format(self):
        config = PipelineSpec(frame_format="q8.8").euphrates_config()
        assert (config.frame_format.int_bits, config.frame_format.frac_bits) == (8, 8)
        assert PipelineSpec(frame_format="float").euphrates_config().frame_format is None

    def test_describe_marks_non_default_format(self):
        assert "/q8.8" in PipelineSpec(frame_format="q8.8").describe()
        assert "/q8.4" not in PipelineSpec().describe()


class TestSpecPresets:
    """Named tuned presets (--spec-preset / PipelineSpec.from_preset)."""

    def test_every_preset_builds(self):
        from repro.soc.config import TUNED_SPEC_PRESETS

        for name in TUNED_SPEC_PRESETS:
            assert isinstance(PipelineSpec.from_preset(name), PipelineSpec)

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="tuned-ci-energy"):
            PipelineSpec.from_preset("no-such-preset")

    def test_overrides_win_over_preset_values(self):
        spec = PipelineSpec.from_preset("tuned-ci-energy", block_size=8)
        assert spec.block_size == 8

    def test_cli_preset_selects_and_explicit_flags_override(self):
        from repro.soc.config import TUNED_SPEC_PRESETS

        parser = argparse.ArgumentParser()
        PipelineSpec.add_cli_options(parser)
        args = parser.parse_args(["--spec-preset", "tuned-ci-energy"])
        assert PipelineSpec.from_cli_args(args) == PipelineSpec.from_preset(
            "tuned-ci-energy"
        )
        args = parser.parse_args(
            ["--spec-preset", "tuned-ci-energy", "--block-size", "8"]
        )
        assert PipelineSpec.from_cli_args(args).block_size == 8
        # Defaulted flags never mask what the preset sets.
        preset_kwargs = TUNED_SPEC_PRESETS["tuned-ci-energy"]
        spec = PipelineSpec.from_cli_args(
            parser.parse_args(["--spec-preset", "tuned-ci-energy"])
        )
        for name, value in preset_kwargs.items():
            if name == "extrapolation_window":
                value = normalize_window(value)
            assert getattr(spec, name) == value
