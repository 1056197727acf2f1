"""Block-matching motion estimation substrate.

This package implements the motion-estimation machinery the paper assumes is
already present inside the ISP's temporal-denoising stage (Sec. 2.3):
macroblock-level block matching with SAD as the matching metric, exhaustive
search (ES) and three-step search (TSS) strategies, and the
:class:`~repro.motion.motion_field.MotionField` container that Euphrates
exposes to the vision backend through the frame-buffer metadata.
"""

from .block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchStats,
    SearchStrategy,
    exhaustive_search_ops_per_macroblock,
    three_step_search_ops_per_macroblock,
)
from .kernels import (
    DEFAULT_KERNEL_BACKEND,
    KERNEL_BACKENDS,
    SadKernel,
    resolve_kernel_backend,
)
from .motion_field import MacroblockGrid, MotionField
from .reference import scalar_estimate, sum_of_absolute_differences

__all__ = [
    "BlockMatcher",
    "BlockMatchingConfig",
    "SadKernel",
    "SearchStats",
    "SearchStrategy",
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKENDS",
    "resolve_kernel_backend",
    "MacroblockGrid",
    "MotionField",
    "scalar_estimate",
    "sum_of_absolute_differences",
    "exhaustive_search_ops_per_macroblock",
    "three_step_search_ops_per_macroblock",
]
