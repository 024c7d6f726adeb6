"""Expression-event extraction from intensity series.

A region's curve is smoothed with a centered moving average, then scanned for
onset (first sustained rise above a fraction theta of the peak), apex (first
peak), and offset (end of the last sustained stretch above the threshold).
Regions are ranked by peak value, equal peaks in series column order; regions
reaching at least rho times the dominant peak count as significantly deformed.
theta and rho are relative, so the analysis is invariant to rescaling the
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .intensity import IntensitySeries, _check_magnitudes

__all__ = [
    "AnalysisParams",
    "RegionEvents",
    "ExpressionReport",
    "detect_events",
    "rank_regions",
    "build_report",
]

@dataclass(frozen=True)
class AnalysisParams:
    """Event-detection and ranking parameters, all relative or frame counts."""

    theta: float = 0.1
    run_length: int = 3
    rho: float = 0.2
    smooth_window: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.theta < 1:
            raise ConfigError(f"theta must be in (0, 1), got {self.theta}")
        if self.run_length < 1:
            raise ConfigError(f"run_length must be >= 1, got {self.run_length}")
        if not 0 < self.rho <= 1:
            raise ConfigError(f"rho must be in (0, 1], got {self.rho}")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ConfigError(
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


def _smooth(data: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average of a non-empty 1-D array, the window clipped at the ends."""
    if window == 1:
        return data.copy()
    n = data.size
    half = min(window // 2, n)  # a window as wide as the series averages all of it
    # Values near the float limit would overflow the running sum, so they are
    # summed scaled down by an exact power of two (none below 2**960).
    shift = max(math.frexp(float(np.abs(data).max()))[1] - 960, 0)
    scaled = np.ldexp(data, -shift)
    sums = np.concatenate(([0.0], np.cumsum(scaled)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    means = (sums[hi] - sums[lo]) / (hi - lo)
    if shift:  # a mean rounded past the largest value could overflow when scaled back
        means = np.ldexp(np.clip(means, scaled.min(), scaled.max()), shift)
    return means


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return list(zip(edges[0::2], edges[1::2]))


def detect_events(values, params: AnalysisParams = AnalysisParams()) -> RegionEvents:
    """Find onset/apex/offset indices on the series smoothed over params.smooth_window.

    With peak P of the smoothed series: apex is the first argmax; onset is the
    start of the first run of >= run_length consecutive values above theta*P
    within [0, apex]; offset is the last index of the last such run within
    [apex, end]. A zero-peak series has no events. Indices are positions in
    `values`; callers tracking frame numbers relabel them. Values must be
    finite and >= 0, as in an IntensitySeries.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1 or data.size == 0:
        raise DataError(f"cannot detect events on an empty series or one that is not 1-D, "
                        f"got shape {data.shape}")
    _check_magnitudes(data, lambda i: f"index {i}")
    smoothed = _smooth(data, params.smooth_window)

    peak = float(smoothed.max())
    if peak <= 0:
        return RegionEvents(onset=None, apex=None, offset=None, peak_value=0.0)
    apex = int(np.argmax(smoothed))
    above = smoothed > params.theta * peak

    onset = None
    for start, stop in _true_runs(above[: apex + 1]):
        if stop - start >= params.run_length:
            onset = int(start)
            break

    offset = None
    for start, stop in _true_runs(above[apex:]):
        if stop - start >= params.run_length:
            offset = apex + int(stop) - 1

    return RegionEvents(onset=onset, apex=apex, offset=offset, peak_value=peak)


def _relabel(index: int | None, frames: np.ndarray) -> int | None:
    return None if index is None else int(frames[index])


def build_report(series: IntensitySeries, params: AnalysisParams = AnalysisParams()) -> ExpressionReport:
    """Detect per-region events and rank regions by smoothed peak value.

    The dominant region has the highest peak, equal peaks keeping the series'
    column order (the region map's order for a series from intensity_series);
    deformed regions are those whose peak is positive and at least rho times
    the dominant peak, in the same order. Event indices are reported as frame
    numbers.
    """
    per_region: dict[str, RegionEvents] = {}
    for name in series.regions:
        events = detect_events(series.column(name), params)
        per_region[name] = replace(
            events,
            onset=_relabel(events.onset, series.frames),
            apex=_relabel(events.apex, series.frames),
            offset=_relabel(events.offset, series.frames),
        )

    # sorted is stable, so equal peaks keep the column order.
    order = sorted(series.regions, key=lambda name: -per_region[name].peak_value)
    top = per_region[order[0]].peak_value
    # rho <= 1, so the top region is the first deformed one whenever its peak is positive.
    deformed = tuple(name for name in order if 0 < per_region[name].peak_value >= params.rho * top)

    return ExpressionReport(
        per_region=per_region,
        dominant_region=deformed[0] if deformed else None,
        deformed_regions=deformed,
        params=params,
    )


def rank_regions(series: IntensitySeries, **params) -> ExpressionReport:
    """build_report with the AnalysisParams fields given as keywords."""
    return build_report(series, AnalysisParams(**params))
