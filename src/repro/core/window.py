"""Extrapolation-window (EW) control: when to infer, when to extrapolate.

The extrapolation window is the number of consecutive frames between two
I-frames (Sec. 3.3).  Euphrates provides two policies:

* **Constant mode** — a fixed EW, giving predictable performance/energy
  improvements (EW-2 halves the inference count, etc.).
* **Adaptive mode** — starts from a seed EW and adjusts it at every I-frame
  based on how much the CNN result disagrees with what extrapolation would
  have predicted: large disagreement shrinks the window, sustained agreement
  grows it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


class WindowController(ABC):
    """Decides, frame by frame, whether to run inference or extrapolate."""

    @abstractmethod
    def should_infer(self, frames_since_inference: int) -> bool:
        """True when the current frame must be an I-frame.

        ``frames_since_inference`` is 0 on the frame immediately after an
        I-frame, 1 on the next, and so on.  The very first frame of a stream
        is always an I-frame regardless of the controller (there is nothing
        to extrapolate from), which the pipeline enforces.
        """

    @abstractmethod
    def observe_disagreement(self, disagreement: float) -> None:
        """Report the inference-vs-extrapolation disagreement at an I-frame.

        ``disagreement`` is ``1 - IoU`` between the CNN result and the
        extrapolated prediction for the same frame (averaged over ROIs);
        0 means they agree perfectly.
        """

    @property
    @abstractmethod
    def current_window(self) -> int:
        """The extrapolation window currently in effect."""

    @abstractmethod
    def clone(self) -> "WindowController":
        """A fresh controller with this one's configuration but no history.

        Streaming sessions give every camera stream its own controller so
        one stream's disagreement feedback cannot perturb another stream's
        window; cloning keeps the configuration while dropping the runtime
        state.
        """

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass
class ConstantWindowController(WindowController):
    """Fixed extrapolation window (the EW-N configurations)."""

    window: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def should_infer(self, frames_since_inference: int) -> bool:
        return frames_since_inference >= self.window - 1

    def observe_disagreement(self, disagreement: float) -> None:
        # Constant mode ignores runtime feedback by design.
        return None

    @property
    def current_window(self) -> int:
        return self.window

    def clone(self) -> "ConstantWindowController":
        return ConstantWindowController(self.window)

    @property
    def name(self) -> str:
        return f"EW-{self.window}"


class AdaptiveWindowController(WindowController):
    """Dynamic EW control (the paper's EW-A configuration, Sec. 3.3).

    Whenever an inference runs, the controller compares the CNN result with
    the extrapolated prediction.  If the disagreement exceeds
    ``disagreement_threshold`` the window shrinks by one (down to
    ``min_window``); if the disagreement stays below the threshold for
    ``patience`` consecutive inferences, the window grows by one (up to
    ``max_window``).
    """

    def __init__(
        self,
        initial_window: int = 2,
        min_window: int = 1,
        max_window: int = 8,
        disagreement_threshold: float = 0.35,
        patience: int = 2,
    ) -> None:
        if min_window < 1:
            raise ValueError("min_window must be >= 1")
        if not min_window <= initial_window <= max_window:
            raise ValueError("initial_window must lie within [min_window, max_window]")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= disagreement_threshold <= 1.0:
            raise ValueError("disagreement_threshold must be in [0, 1]")
        self.min_window = min_window
        self.max_window = max_window
        self.disagreement_threshold = disagreement_threshold
        self.patience = patience
        self.initial_window = initial_window
        self._window = initial_window
        self._good_streak = 0
        #: Number of disagreement reports observed (a count, so the state
        #: stays bounded however long a stream runs).
        self.observations = 0

    def should_infer(self, frames_since_inference: int) -> bool:
        return frames_since_inference >= self._window - 1

    def observe_disagreement(self, disagreement: float) -> None:
        self.observations += 1
        if disagreement > self.disagreement_threshold:
            self._window = max(self.min_window, self._window - 1)
            self._good_streak = 0
            return
        self._good_streak += 1
        if self._good_streak >= self.patience:
            self._window = min(self.max_window, self._window + 1)
            self._good_streak = 0

    @property
    def current_window(self) -> int:
        return self._window

    def clone(self) -> "AdaptiveWindowController":
        return AdaptiveWindowController(
            initial_window=self.initial_window,
            min_window=self.min_window,
            max_window=self.max_window,
            disagreement_threshold=self.disagreement_threshold,
            patience=self.patience,
        )

    @property
    def name(self) -> str:
        return "EW-A"
