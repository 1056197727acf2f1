"""One typed, frozen description of a swept pipeline configuration.

Before :class:`PipelineSpec` existed, the tunable knobs of the pipeline
(``extrapolation_window``, ``block_size``, ``search_range``,
``exhaustive_search``, ``search_policy``, ``sub_roi_grid``,
``expose_motion_vectors``) were threaded as loose keyword arguments through
three independent layers — ``build_pipeline``, the harness
:class:`~repro.harness.runner.SweepRunner`, and the CLI — each with its own
defaults and its own ad-hoc cache key.  A spec collapses all of that into a
single hashable value object:

* :meth:`PipelineSpec.build` constructs the pipeline (what ``build_pipeline``
  used to do);
* :meth:`PipelineSpec.cache_key` is the canonical memoization key the sweep
  harness stores results under;
* :meth:`PipelineSpec.to_cli_args` / :meth:`PipelineSpec.from_cli_args`
  round-trip a spec through the command line, so a result's provenance can be
  reproduced by pasting the printed flags back into the harness.

The spec also carries one *execution* knob, ``transport``: how frames
reach the worker shards of :class:`~repro.core.executor.ShardedExecutor`
(the worker count is each tool's ``--workers``).  Every sequence runs in
its own session, so execution never changes outputs (property-tested) and
``transport`` is excluded from :meth:`PipelineSpec.cache_key`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Tuple, Union

from ..isp.framebuffer import parse_frame_format, spell_frame_format
from ..motion.block_matching import BlockMatchingConfig, SearchPolicy, SearchStrategy
from ..motion.kernels import DEFAULT_KERNEL_BACKEND, KERNEL_BACKENDS
from .extrapolation import ExtrapolationConfig
from .window import (
    AdaptiveWindowController,
    ConstantWindowController,
    WindowController,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..soc.config import SoCConfig
    from ..soc.soc import VisionSoC
    from .backends import InferenceBackend
    from .pipeline import EuphratesConfig, EuphratesPipeline

#: Hosts the E-frame extrapolation algorithm can run on: the dedicated
#: motion-controller IP (the Euphrates design) or the CPU cluster (the
#: EW-N@CPU software baseline of Fig. 9b).
EXTRAPOLATION_HOSTS = ("mc", "cpu")

#: Window-mode spellings accepted for the adaptive (EW-A) controller.
_ADAPTIVE_ALIASES = {"adaptive", "ew-a", "a"}


def normalize_window(window: Union[int, str]) -> Union[int, str]:
    """Normalize a window knob to an ``int`` or the string ``"adaptive"``."""
    if isinstance(window, str):
        lowered = window.lower()
        if lowered in _ADAPTIVE_ALIASES:
            return "adaptive"
        try:
            return int(lowered)
        except ValueError:
            raise ValueError(f"unknown window mode '{window}'") from None
    return int(window)


@dataclass(frozen=True)
class PipelineSpec:
    """Every knob the benchmarks and the harness sweep, in one frozen object."""

    #: Constant window size (int) or ``"adaptive"`` for the EW-A controller.
    extrapolation_window: Union[int, str] = 2
    #: Macroblock size of the ISP's block-matching motion estimation.
    block_size: int = 16
    #: Block-matching search range in pixels.
    search_range: int = 7
    #: Exhaustive search instead of the three-step search.
    exhaustive_search: bool = False
    #: Exhaustive-search candidate-scan policy
    #: (``full``/``pruned``/``histogram``).
    search_policy: str = "pruned"
    #: Kernel backend of motion search, the denoise blend and the
    #: extrapolator's ROI statistics: ``c`` (the
    #: default; compiled, degrades to numpy where it cannot be built) or
    #: ``numpy`` (the bit-exact oracle).  All backends are bit-identical,
    #: but the knob is part of :meth:`cache_key` anyway so cached artifacts
    #: record which backend actually produced them.
    kernel_backend: str = DEFAULT_KERNEL_BACKEND
    #: Fixed-point format of the ISP datapath: ``qM.F`` (e.g. the default
    #: ``q8.4``) quantizes every stage output onto that lattice; ``float``
    #: restores the unquantized float64 datapath.  A vision knob (it changes
    #: the committed frames, hence the motion fields), so it is part of
    #: :meth:`cache_key`.
    frame_format: str = "q8.4"
    #: Sub-ROI grid for deformation handling; (1, 1) disables it.
    sub_roi_grid: Tuple[int, int] = (2, 2)
    #: Euphrates ISP augmentation: expose motion vectors to the backend SoC.
    expose_motion_vectors: bool = True
    #: The modeled SoC this pipeline's cost is priced on: a named capture
    #: preset (``default``/``1080p30``/``720p60``/...) or ``WxH@FPS``.
    #: Purely a hardware-model knob — it never changes pipeline outputs.
    soc_config: str = "default"
    #: Where E-frame extrapolation is hosted when pricing energy: the
    #: dedicated motion-controller IP (``mc``) or software on the CPU
    #: cluster (``cpu``, the Fig. 9b EW-N@CPU baseline).
    extrapolation_host: str = "mc"
    #: Frame transport between client and worker shards: ``auto`` (shared
    #: memory when there are worker processes), ``shm`` or ``inproc``.
    #: Never changes outputs.
    transport: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "extrapolation_window", normalize_window(self.extrapolation_window)
        )
        if isinstance(self.extrapolation_window, int) and self.extrapolation_window < 1:
            raise ValueError("extrapolation_window must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.search_range < 0:
            raise ValueError("search_range must be >= 0")
        object.__setattr__(self, "search_policy", SearchPolicy(self.search_policy).value)
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend '{self.kernel_backend}' "
                f"(expected one of {KERNEL_BACKENDS})"
            )
        # Normalize (and validate) the frame-format spelling so equal
        # lattices always hash and cache identically.
        object.__setattr__(
            self, "frame_format", spell_frame_format(parse_frame_format(self.frame_format))
        )
        grid = tuple(int(v) for v in self.sub_roi_grid)
        if len(grid) != 2 or grid[0] <= 0 or grid[1] <= 0:
            raise ValueError("sub_roi_grid must be two positive integers")
        object.__setattr__(self, "sub_roi_grid", grid)
        if self.extrapolation_host not in EXTRAPOLATION_HOSTS:
            raise ValueError(
                f"unknown extrapolation host '{self.extrapolation_host}' "
                f"(expected one of {EXTRAPOLATION_HOSTS})"
            )
        # Fail loudly on bad SoC names at construction, like every other
        # knob (the import is deferred: soc depends on core, not vice versa).
        from ..soc.config import resolve_soc_config

        resolve_soc_config(self.soc_config)
        from .executor import TRANSPORTS

        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport '{self.transport}' (expected one of {TRANSPORTS})"
            )

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_preset(cls, name: str, **overrides: object) -> "PipelineSpec":
        """Build a named spec preset (see ``repro.soc.config.TUNED_SPEC_PRESETS``).

        Presets are configurations the design-space autotuner
        (``python -m repro.harness tune``) found Pareto-optimal; each entry
        records plain spec kwargs, which explicit ``overrides`` replace (an
        unknown keyword raises :class:`TypeError`, as in the constructor).
        """
        from ..soc.config import TUNED_SPEC_PRESETS

        try:
            kwargs = dict(TUNED_SPEC_PRESETS[name])
        except KeyError:
            presets = ", ".join(sorted(TUNED_SPEC_PRESETS))
            raise ValueError(
                f"unknown spec preset '{name}' (expected one of: {presets})"
            ) from None
        kwargs.update(overrides)
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def add_cli_options(
        cls, parser: argparse.ArgumentParser, include_window: bool = True
    ) -> None:
        """Register one CLI flag per spec field on ``parser``.

        The flags are the inverse of :meth:`to_cli_args`; parse them back
        with :meth:`from_cli_args`.  ``include_window=False`` omits the
        ``--window`` flag for tools (like the experiment harness) that sweep
        the window themselves.
        """
        defaults = cls()
        parser.add_argument(
            "--spec-preset",
            dest="spec_preset",
            default=None,
            metavar="NAME",
            help="start from a named tuned spec preset (see "
            "repro.soc.config.TUNED_SPEC_PRESETS / 'list --json'); "
            "explicit spec flags override the preset's fields",
        )
        if include_window:
            parser.add_argument(
                "--window",
                dest="spec_window",
                default=str(defaults.extrapolation_window),
                metavar="N|adaptive",
                help="extrapolation window: a constant size or 'adaptive' "
                f"(default: {defaults.extrapolation_window})",
            )
        parser.add_argument(
            "--block-size",
            dest="spec_block_size",
            type=int,
            default=defaults.block_size,
            help=f"macroblock size for motion estimation (default: {defaults.block_size})",
        )
        parser.add_argument(
            "--search-range",
            dest="spec_search_range",
            type=int,
            default=defaults.search_range,
            help=f"block-matching search range in pixels (default: {defaults.search_range})",
        )
        parser.add_argument(
            "--exhaustive-search",
            dest="spec_exhaustive_search",
            action="store_true",
            default=defaults.exhaustive_search,
            help="use exhaustive search instead of three-step search",
        )
        parser.add_argument(
            "--search-policy",
            dest="spec_search_policy",
            choices=[policy.value for policy in SearchPolicy],
            default=defaults.search_policy,
            help="exhaustive-search candidate-scan policy; all policies are "
            f"result-identical (default: {defaults.search_policy})",
        )
        parser.add_argument(
            "--kernel-backend",
            dest="spec_kernel_backend",
            choices=list(KERNEL_BACKENDS),
            default=defaults.kernel_backend,
            help="kernel backend; c degrades to numpy where it cannot be built, "
            f"and all backends are bit-identical (default: {defaults.kernel_backend})",
        )
        parser.add_argument(
            "--frame-format",
            dest="spec_frame_format",
            default=defaults.frame_format,
            metavar="qM.F|float",
            help="fixed-point format of the ISP datapath, e.g. q8.4; 'float' "
            f"selects the unquantized float64 path (default: {defaults.frame_format})",
        )
        parser.add_argument(
            "--sub-roi-grid",
            dest="spec_sub_roi_grid",
            default="x".join(str(v) for v in defaults.sub_roi_grid),
            metavar="RxC",
            help="sub-ROI grid for deformation handling, e.g. 2x2; 1x1 disables "
            f"(default: {'x'.join(str(v) for v in defaults.sub_roi_grid)})",
        )
        parser.add_argument(
            "--no-motion-vectors",
            dest="spec_expose_motion_vectors",
            action="store_false",
            default=defaults.expose_motion_vectors,
            help="model a conventional ISP that discards its motion vectors "
            "(every frame becomes an I-frame)",
        )
        parser.add_argument(
            "--soc-config",
            dest="spec_soc_config",
            default=defaults.soc_config,
            metavar="NAME|WxH@FPS",
            help="modeled SoC capture setting for energy pricing: a preset "
            "name (default, 1080p60, 1080p30, 720p60, 720p30, 4k30) or an "
            f"explicit WIDTHxHEIGHT@FPS (default: {defaults.soc_config})",
        )
        parser.add_argument(
            "--extrapolation-host",
            dest="spec_extrapolation_host",
            choices=list(EXTRAPOLATION_HOSTS),
            default=defaults.extrapolation_host,
            help="where E-frame extrapolation runs when pricing energy: the "
            "motion-controller IP or software on the CPU cluster "
            f"(default: {defaults.extrapolation_host})",
        )
        from .executor import TRANSPORTS

        parser.add_argument(
            "--transport",
            dest="spec_transport",
            choices=list(TRANSPORTS),
            default=defaults.transport,
            help="frame transport between client and worker shards "
            f"(default: {defaults.transport})",
        )

    @classmethod
    def from_cli_args(cls, args: argparse.Namespace) -> "PipelineSpec":
        """Build a spec from a namespace parsed with :meth:`add_cli_options`.

        With ``--spec-preset`` the named preset supplies the base values and
        any spec flag whose parsed value differs from the built-in default
        overrides the corresponding preset field.
        """
        rows, _, cols = str(args.spec_sub_roi_grid).partition("x")
        try:
            grid = (int(rows), int(cols))
        except ValueError:
            raise ValueError(
                f"malformed --sub-roi-grid '{args.spec_sub_roi_grid}' (expected RxC)"
            ) from None
        defaults = cls()
        kwargs = {
            "extrapolation_window": normalize_window(
                getattr(args, "spec_window", defaults.extrapolation_window)
            ),
            "block_size": args.spec_block_size,
            "search_range": args.spec_search_range,
            "exhaustive_search": args.spec_exhaustive_search,
            "search_policy": args.spec_search_policy,
            "kernel_backend": getattr(
                args, "spec_kernel_backend", defaults.kernel_backend
            ),
            "frame_format": getattr(args, "spec_frame_format", defaults.frame_format),
            "sub_roi_grid": grid,
            "expose_motion_vectors": args.spec_expose_motion_vectors,
            "soc_config": args.spec_soc_config,
            "extrapolation_host": args.spec_extrapolation_host,
            "transport": getattr(args, "spec_transport", defaults.transport),
        }
        preset = getattr(args, "spec_preset", None)
        if preset:
            overrides = {
                name: value
                for name, value in kwargs.items()
                if value != getattr(defaults, name)
            }
            return cls.from_preset(preset, **overrides)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_cli_args(self) -> List[str]:
        """The CLI flags that reproduce this spec (inverse of CLI parsing).

        Only non-default values are emitted, so the common specs print
        compactly; ``PipelineSpec.from_cli_args`` on a parser populated by
        :meth:`add_cli_options` round-trips exactly.
        """
        defaults = PipelineSpec()
        tokens: List[str] = []
        if self.extrapolation_window != defaults.extrapolation_window:
            tokens += ["--window", str(self.extrapolation_window)]
        if self.block_size != defaults.block_size:
            tokens += ["--block-size", str(self.block_size)]
        if self.search_range != defaults.search_range:
            tokens += ["--search-range", str(self.search_range)]
        if self.exhaustive_search:
            tokens += ["--exhaustive-search"]
        if self.search_policy != defaults.search_policy:
            tokens += ["--search-policy", self.search_policy]
        if self.kernel_backend != defaults.kernel_backend:
            tokens += ["--kernel-backend", self.kernel_backend]
        if self.frame_format != defaults.frame_format:
            tokens += ["--frame-format", self.frame_format]
        if self.sub_roi_grid != defaults.sub_roi_grid:
            tokens += ["--sub-roi-grid", "x".join(str(v) for v in self.sub_roi_grid)]
        if not self.expose_motion_vectors:
            tokens += ["--no-motion-vectors"]
        if self.soc_config != defaults.soc_config:
            tokens += ["--soc-config", self.soc_config]
        if self.extrapolation_host != defaults.extrapolation_host:
            tokens += ["--extrapolation-host", self.extrapolation_host]
        if self.transport != defaults.transport:
            tokens += ["--transport", self.transport]
        return tokens

    def cache_key(self) -> Tuple[object, ...]:
        """A stable hashable key identifying this configuration.

        The harness stores sweep results under this key.  ``transport`` is
        deliberately excluded: it selects how frames reach the worker
        shards, never what they compute (output is identical at any worker
        count, property-tested), so results are shared across execution
        modes.  Two specs that agree on every *algorithmic* knob therefore
        share a key even if their transports differ.
        """
        return (
            str(self.extrapolation_window),
            self.block_size,
            self.search_range,
            self.exhaustive_search,
            self.search_policy,
            self.kernel_backend,
            self.frame_format,
            self.sub_roi_grid,
            self.expose_motion_vectors,
            self.soc_config,
            self.extrapolation_host,
        )

    def describe(self) -> str:
        """Short human-readable label (``EW-2/b16/r7/tss/pruned``)."""
        window = (
            "EW-A"
            if self.extrapolation_window == "adaptive"
            else f"EW-{self.extrapolation_window}"
        )
        search = "es" if self.exhaustive_search else "tss"
        label = f"{window}/b{self.block_size}/r{self.search_range}/{search}"
        if self.exhaustive_search:
            label += f"/{self.search_policy}"
        if self.kernel_backend != DEFAULT_KERNEL_BACKEND:
            label += f"/k:{self.kernel_backend}"
        if self.frame_format != PipelineSpec().frame_format:
            label += f"/{self.frame_format}"
        if self.sub_roi_grid != PipelineSpec().sub_roi_grid:
            label += f"/sr{self.sub_roi_grid[0]}x{self.sub_roi_grid[1]}"
        if not self.expose_motion_vectors:
            label += "/no-mv"
        if self.soc_config != "default":
            label += f"/soc:{self.soc_config}"
        if self.extrapolation_host != "mc":
            label += f"/ew@{self.extrapolation_host}"
        return label

    # ------------------------------------------------------------------
    # Construction of the configured objects
    # ------------------------------------------------------------------
    def block_matching_config(self) -> BlockMatchingConfig:
        strategy = (
            SearchStrategy.EXHAUSTIVE if self.exhaustive_search else SearchStrategy.THREE_STEP
        )
        return BlockMatchingConfig(
            block_size=self.block_size,
            search_range=self.search_range,
            strategy=strategy,
            search_policy=SearchPolicy(self.search_policy),
            kernel_backend=self.kernel_backend,
        )

    def euphrates_config(self) -> "EuphratesConfig":
        from .pipeline import EuphratesConfig

        return EuphratesConfig(
            block_matching=self.block_matching_config(),
            extrapolation=ExtrapolationConfig(sub_roi_grid=self.sub_roi_grid),
            expose_motion_vectors=self.expose_motion_vectors,
            frame_format=parse_frame_format(self.frame_format),
        )

    def window_controller(self) -> WindowController:
        """A fresh window controller implementing this spec's window mode."""
        if self.extrapolation_window == "adaptive":
            return AdaptiveWindowController()
        return ConstantWindowController(int(self.extrapolation_window))

    def build(self, backend: "InferenceBackend") -> "EuphratesPipeline":
        """Assemble a ready-to-run pipeline around ``backend``."""
        from .pipeline import EuphratesPipeline

        pipeline = EuphratesPipeline(
            backend=backend,
            window_controller=self.window_controller(),
            config=self.euphrates_config(),
        )
        pipeline.transport = self.transport
        return pipeline

    def with_window(self, window: Union[int, str]) -> "PipelineSpec":
        """This spec with a different extrapolation window (sweep helper)."""
        return replace(self, extrapolation_window=window)

    # ------------------------------------------------------------------
    # The modeled SoC this configuration prices energy on
    # ------------------------------------------------------------------
    @property
    def extrapolation_on_cpu(self) -> bool:
        """Whether energy pricing hosts E-frame extrapolation in software."""
        return self.extrapolation_host == "cpu"

    def soc_configuration(self) -> "SoCConfig":
        """The :class:`~repro.soc.config.SoCConfig` named by ``soc_config``."""
        from ..soc.config import resolve_soc_config

        return resolve_soc_config(self.soc_config)

    def vision_soc(self) -> "VisionSoC":
        """A :class:`~repro.soc.soc.VisionSoC` model for this spec's SoC."""
        from ..soc.soc import VisionSoC

        return VisionSoC(self.soc_configuration())
