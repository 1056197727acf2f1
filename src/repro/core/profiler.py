"""Low-overhead per-stage wall-clock aggregation over :class:`FrameTelemetry`.

Sessions stamp per-stage timings onto every telemetry record (a handful of
``time.perf_counter()`` pairs per frame — well under a microsecond against
frame paths measured in milliseconds).  :class:`StageProfiler` folds those
records into per-kind (I-frame vs E-frame) totals that the ``profile``
subcommand and the pipeline bench render; :func:`stage_seconds` also feeds
the per-stream ``stage_s`` totals of :class:`~repro.core.executor.StreamStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .types import FrameKind, FrameTelemetry

#: Stage display order.  ``other`` is the residual: total frame time minus
#: every attributed stage (controller logic, state pruning, dispatch).
STAGE_NAMES = (
    "isp_other",
    "motion_search",
    "denoise_blend",
    "extrapolation",
    "inference",
    "other",
)

#: FrameTelemetry field backing each directly-measured stage.
_STAGE_FIELDS: Dict[str, str] = {
    "motion_search": "motion_search_s",
    "denoise_blend": "denoise_blend_s",
    "extrapolation": "extrapolation_s",
    "inference": "inference_s",
}


def stage_seconds(record: FrameTelemetry) -> Dict[str, float]:
    """Decompose one telemetry record into per-stage seconds.

    ``isp_other`` is the ISP time not attributed to motion search or the
    denoise blend (raw-stage processing, quantization, frame commit);
    ``other`` is whatever the whole-frame clock saw beyond every stage.
    Both are clamped at zero so clock jitter never produces negative bars.
    """
    isp_s = record.isp_s
    seconds = {
        name: getattr(record, field_name) for name, field_name in _STAGE_FIELDS.items()
    }
    seconds["isp_other"] = max(
        0.0, isp_s - seconds["motion_search"] - seconds["denoise_blend"]
    )
    attributed = isp_s + seconds["extrapolation"] + seconds["inference"]
    seconds["other"] = max(0.0, record.total_s - attributed)
    return seconds


@dataclass
class StageSummary:
    """Aggregated stage timings for one frame kind."""

    kind: str
    frames: int = 0
    total_s: float = 0.0
    stage_totals: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STAGE_NAMES, 0.0)
    )

    @property
    def mean_total_s(self) -> float:
        return self.total_s / self.frames if self.frames else 0.0

    @property
    def fps(self) -> float:
        return 1.0 / self.mean_total_s if self.mean_total_s > 0 else 0.0

    def rows(self) -> List[dict]:
        """Per-stage mean/share rows in display order (zero stages omitted)."""
        rows = []
        for name in STAGE_NAMES:
            total = self.stage_totals[name]
            if total <= 0.0 and name != "other":
                continue
            rows.append(
                {
                    "stage": name,
                    "total_s": total,
                    "mean_s": total / self.frames if self.frames else 0.0,
                    "share": total / self.total_s if self.total_s > 0 else 0.0,
                }
            )
        return rows


class StageProfiler:
    """Accumulates per-stage seconds from telemetry records, split by kind."""

    def __init__(self) -> None:
        self._summaries = {
            "I": StageSummary(kind="I"),
            "E": StageSummary(kind="E"),
        }

    def observe(self, record: FrameTelemetry) -> None:
        kind = "E" if record.kind is FrameKind.EXTRAPOLATION else "I"
        summary = self._summaries[kind]
        summary.frames += 1
        summary.total_s += record.total_s
        for name, seconds in stage_seconds(record).items():
            summary.stage_totals[name] += seconds

    def summary(self, kind: str) -> StageSummary:
        """The aggregate for ``kind`` (``"I"`` or ``"E"``)."""
        return self._summaries[kind]

    @property
    def frames(self) -> int:
        return sum(summary.frames for summary in self._summaries.values())

    def mean_seconds(self, kind: str | None = None) -> Dict[str, float]:
        """Mean seconds per frame per stage (over both kinds by default)."""
        if kind is not None:
            summaries = [self._summaries[kind]]
        else:
            summaries = list(self._summaries.values())
        frames = sum(summary.frames for summary in summaries)
        means: Dict[str, float] = {}
        for name in STAGE_NAMES:
            total = sum(summary.stage_totals[name] for summary in summaries)
            means[name] = total / frames if frames else 0.0
        return means


__all__ = ["STAGE_NAMES", "StageProfiler", "StageSummary", "stage_seconds"]
