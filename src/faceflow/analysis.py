"""Expression-event extraction from intensity series.

A region's curve is smoothed with a centered moving average, then scanned for
onset (first sustained rise above a fraction theta of the peak), apex (first
peak), and offset (end of the last sustained stretch above the threshold).
Regions are ranked by peak value; regions reaching at least rho times the
dominant peak count as significantly deformed. theta and rho are relative, so
the analysis is invariant to rescaling the series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, EvenWindow, InvalidThreshold
from .intensity import IntensitySeries

__all__ = [
    "AnalysisParams",
    "RegionEvents",
    "ExpressionReport",
    "smooth_series",
    "detect_events",
    "rank_regions",
    "build_report",
]

# Fixed tie-break order for the canonical facial regions; other names rank
# after them in series column order.
_CANONICAL_ORDER = ("eyes_eyebrows", "cheeks", "mouth")


@dataclass(frozen=True)
class AnalysisParams:
    """Event-detection and ranking parameters, all relative or frame counts."""

    theta: float = 0.1
    run_length: int = 3
    rho: float = 0.2
    smooth_window: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.theta < 1:
            raise InvalidThreshold(f"theta must be in (0, 1), got {self.theta}")
        if self.run_length < 1:
            raise InvalidThreshold(f"run_length must be >= 1, got {self.run_length}")
        if not 0 < self.rho <= 1:
            raise InvalidThreshold(f"rho must be in (0, 1], got {self.rho}")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise EvenWindow(
                f"smoothing window must be odd and >= 1, got {self.smooth_window}"
            )


@dataclass(frozen=True)
class RegionEvents:
    """Onset/apex/offset frames of one region; None when not detected.

    peak_value is the smoothed series value at the apex.
    """

    onset: int | None
    apex: int | None
    offset: int | None
    peak_value: float


@dataclass(frozen=True, eq=False)
class ExpressionReport:
    """Per-region events plus the dominant and significantly deformed regions."""

    per_region: dict[str, RegionEvents]
    dominant_region: str | None
    deformed_regions: tuple[str, ...]
    params: AnalysisParams


def smooth_series(values, window: int) -> np.ndarray:
    """Centered moving average with the window clipped at the sequence ends."""
    AnalysisParams(smooth_window=window)  # validates the window
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1:
        raise ValueError("smooth_series expects a 1-D sequence")
    if window == 1 or data.size == 0:
        return data.copy()
    n = data.size
    half = min(window // 2, n)  # a window as wide as the series averages all of it
    sums = np.concatenate(([0.0], np.cumsum(data)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (sums[hi] - sums[lo]) / (hi - lo)


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return list(zip(edges[0::2], edges[1::2]))


def detect_events(
    values,
    theta: float = 0.1,
    run_length: int = 3,
    smooth_window: int = 5,
) -> RegionEvents:
    """Find onset/apex/offset indices on the smoothed series.

    With peak P of the smoothed series: apex is the first argmax; onset is the
    start of the first run of >= run_length consecutive values above theta*P
    within [0, apex]; offset is the last index of the last such run within
    [apex, end]. A zero-peak series has no events. Indices are positions in
    `values`; callers tracking frame numbers relabel them.
    """
    AnalysisParams(theta=theta, run_length=run_length)  # validates; smooth_series the window
    smoothed = smooth_series(values, smooth_window)
    if smoothed.size == 0:
        raise EmptySeries("cannot detect events on an empty series")

    peak = float(smoothed.max())
    if peak <= 0:
        return RegionEvents(onset=None, apex=None, offset=None, peak_value=0.0)
    apex = int(np.argmax(smoothed))
    above = smoothed > theta * peak

    onset = None
    for start, stop in _true_runs(above[: apex + 1]):
        if stop - start >= run_length:
            onset = int(start)
            break

    offset = None
    for start, stop in _true_runs(above[apex:]):
        if stop - start >= run_length:
            offset = apex + int(stop) - 1

    return RegionEvents(onset=onset, apex=apex, offset=offset, peak_value=peak)


def _tie_break(name: str, columns: tuple[str, ...]):
    if name in _CANONICAL_ORDER:
        return (0, _CANONICAL_ORDER.index(name))
    return (1, columns.index(name))


def _relabel(index: int | None, frames: np.ndarray) -> int | None:
    return None if index is None else int(frames[index])


def build_report(series: IntensitySeries, params: AnalysisParams = AnalysisParams()) -> ExpressionReport:
    """Detect per-region events and rank regions by smoothed peak value.

    The dominant region has the highest peak (ties broken by the canonical
    region order, then column order); deformed regions are those whose peak
    is positive and at least rho times the dominant peak, sorted by
    descending peak. Event indices are reported as frame numbers.
    """
    if not series.regions or series.values.size == 0:
        raise EmptySeries("series has no regions or no rows")

    per_region: dict[str, RegionEvents] = {}
    peaks: dict[str, float] = {}
    for name in series.regions:
        events = detect_events(
            series.column(name),
            theta=params.theta,
            run_length=params.run_length,
            smooth_window=params.smooth_window,
        )
        per_region[name] = RegionEvents(
            onset=_relabel(events.onset, series.frames),
            apex=_relabel(events.apex, series.frames),
            offset=_relabel(events.offset, series.frames),
            peak_value=events.peak_value,
        )
        peaks[name] = events.peak_value

    order = sorted(
        series.regions,
        key=lambda name: (-peaks[name], _tie_break(name, series.regions)),
    )
    top = order[0]
    if peaks[top] <= 0:
        dominant = None
        deformed: tuple[str, ...] = ()
    else:
        dominant = top
        deformed = tuple(
            name for name in order if peaks[name] > 0 and peaks[name] >= params.rho * peaks[top]
        )

    return ExpressionReport(
        per_region=per_region,
        dominant_region=dominant,
        deformed_regions=deformed,
        params=params,
    )


def rank_regions(
    series: IntensitySeries,
    rho: float = 0.2,
    theta: float = 0.1,
    run_length: int = 3,
    smooth_window: int = 5,
) -> ExpressionReport:
    """build_report with the parameters given as keywords."""
    return build_report(
        series,
        AnalysisParams(theta=theta, run_length=run_length, rho=rho, smooth_window=smooth_window),
    )
