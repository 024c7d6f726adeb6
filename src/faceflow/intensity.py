"""Per-region displacement-magnitude time series over a frame sequence.

Each series row holds, for one frame index, the mean Euclidean displacement
magnitude sqrt(u^2 + v^2) over a region's valid flow pixels. Reference mode
measures every frame against frame 0 (the neutral face); consecutive mode
measures frame-to-frame motion. Values are optionally normalized by the image
diagonal so they are resolution-independent.

Flow is solved only on the regions' bounding box grown by the flow's
support halo (see flow.flow_support), the part of the frame the regions'
flow depends on. Work that is the same for every pair is done once per run:
at one pyramid level the reference frame is smoothed once (smoothing is the
first step of the single-level solve, so smoothing first and solving with
sigma 0 is the same arithmetic), and each region's mask is cropped to the
region's own bounding box, on which every pair's flow is reduced. Frame pairs
are independent, so they are solved on a thread pool with one worker per
available CPU; numpy and scipy release the interpreter lock in the flow
solve. Each pair's row is stored by its index, so the series is identical
whatever the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EmptySequence, UnknownRegion
# lucas_kanade is not called here but stays importable by this module's name:
# perfbench/tracing.py wraps both flow entry points where intensity looks them up.
from .flow import (  # noqa: F401
    FlowField,
    FlowParams,
    bounding_box,
    flow_support,
    gaussian_smooth,
    lucas_kanade,
    pyramidal_lk,
)
from .imageio import FrameSequence, Image
from .regions import GridSpec, RegionMap, region_mask

__all__ = [
    "FlowVector",
    "IntensitySeries",
    "displacement_magnitude",
    "region_mean_magnitude",
    "intensity_series",
]


@dataclass(frozen=True)
class FlowVector:
    """A displaced coordinate (xi, yi) and its reference coordinate (x, y)."""

    xi: float
    yi: float
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self) -> None:
        for value in (self.xi, self.yi, self.x, self.y):
            if not math.isfinite(value):
                raise ValueError(f"FlowVector components must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class IntensitySeries:
    """Mean displacement magnitude per region (columns) per frame (rows).

    frames[i] is the frame index row i describes; counts[i, j] is the number
    of valid flow pixels behind values[i, j] (None when loaded from CSV).
    """

    regions: tuple[str, ...]
    frames: np.ndarray
    values: np.ndarray
    units: str = "normalized"
    mode: str = "reference"
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.regions):
            raise ValueError("values must be (n_frames, n_regions)")
        if self.frames.shape != (self.values.shape[0],):
            raise ValueError("frames must have one entry per values row")

    def column(self, name: str) -> np.ndarray:
        if name not in self.regions:
            raise UnknownRegion(f"no region named {name!r} in series")
        return self.values[:, self.regions.index(name)]


def displacement_magnitude(vec: FlowVector) -> float:
    """Euclidean displacement sqrt((xi - x)^2 + (yi - y)^2)."""
    return math.hypot(vec.xi - vec.x, vec.yi - vec.y)


def region_mean_magnitude(
    flow: FlowField,
    mask: np.ndarray,
    normalize: bool = False,
    diag: float = 0.0,
) -> tuple[float, int]:
    """Mean displacement magnitude over mask & valid pixels, with that count.

    Returns (0.0, 0) when no pixel qualifies. When normalize is set the mean
    is divided by diag (the image diagonal in pixels).
    """
    if mask.shape != flow.u.shape:
        raise DimensionMismatch(
            f"mask is {mask.shape[1]}x{mask.shape[0]}, flow is {flow.u.shape[1]}x{flow.u.shape[0]}"
        )
    if normalize and diag <= 0:
        raise ValueError("normalize requires a positive diag")
    selected = mask & flow.valid
    count = np.count_nonzero(selected)
    if count == 0:
        return 0.0, 0
    # The sum divided by the count is what ndarray.mean computes.
    mean = float(np.add.reduce(np.hypot(flow.u[selected], flow.v[selected])) / count)
    if normalize:
        mean /= diag
    return mean, count


def intensity_series(
    seq: FrameSequence,
    grid: GridSpec,
    region_map: RegionMap,
    params: FlowParams = FlowParams(),
    mode: str = "reference",
    normalize: bool = True,
) -> IntensitySeries:
    """Build the per-region series for frames 1..N-1.

    reference mode pairs frame 0 with frame t; consecutive mode pairs frame
    t-1 with frame t.
    """
    if len(seq) < 2:
        raise EmptySequence(f"need at least 2 frames for flow, got {len(seq)}")
    if mode not in ("reference", "consecutive"):
        raise ValueError(f"mode must be 'reference' or 'consecutive', got {mode!r}")
    if (grid.width, grid.height) != (seq.width, seq.height):
        raise DimensionMismatch(
            f"grid is {grid.width}x{grid.height}, frames are {seq.width}x{seq.height}"
        )

    names = region_map.names()
    masks = [region_mask(grid, region_map, name) for name in names]
    diag = math.hypot(seq.width, seq.height)
    union = np.zeros((seq.height, seq.width), dtype=bool)
    for mask in masks:
        union |= mask
    # Checks the fit with the real sigma, before anything is smoothed.
    box = flow_support(union, params)
    # Each region is reduced on its own bounding box inside the flow box.
    regions = []
    for mask in masks:
        mask = mask[box]
        inner = bounding_box(mask)
        regions.append((inner, mask[inner]))

    # At one level the frames are smoothed here, the reference only once; a
    # pyramid smooths inside pyramidal_lk, after its warp.
    one_level = params.pyramid_levels == 1
    solve_params = replace(params, smooth_sigma=0.0) if one_level else params

    def crop(t: int) -> Image:
        frame = Image(seq[t].pixels[box])
        return gaussian_smooth(frame, params.smooth_sigma) if one_level else frame

    reference = crop(0) if mode == "reference" else None

    def pair_row(t: int) -> list[tuple[float, int]]:
        first = reference if mode == "reference" else crop(t - 1)
        flow = pyramidal_lk(first, crop(t), solve_params)
        return [
            region_mean_magnitude(
                FlowField(u=flow.u[inner], v=flow.v[inner], valid=flow.valid[inner]),
                mask,
                normalize=normalize,
                diag=diag,
            )
            for inner, mask in regions
        ]

    n = len(seq)
    values = np.zeros((n - 1, len(names)), dtype=np.float64)
    counts = np.zeros((n - 1, len(names)), dtype=np.int64)
    # Peak memory grows by about one pair's working set per extra worker.
    with ThreadPoolExecutor(max_workers=min(_available_cpus(), n - 1)) as pool:
        for i, row in enumerate(pool.map(pair_row, range(1, n))):
            for j, (value, count) in enumerate(row):
                values[i, j], counts[i, j] = value, count

    return IntensitySeries(
        regions=names,
        frames=np.arange(1, n, dtype=np.int64),
        values=values,
        units="normalized" if normalize else "pixels",
        mode=mode,
        counts=counts,
    )


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
