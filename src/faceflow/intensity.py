"""Per-region displacement-magnitude time series over a frame sequence.

Each series row holds, for one frame index, the mean Euclidean displacement
magnitude sqrt(u^2 + v^2) over a region's valid flow pixels. Reference mode
measures every frame against frame 0 (the neutral face); consecutive mode
measures frame-to-frame motion. The finished series is optionally divided by
the image diagonal, once, so its values are resolution-independent.

Flow is solved only on flow boxes (the rule is flow.flow_support's). Region
pixels that share an edge form a group, and each group gets its own box when
the group boxes together are smaller than the one box around all regions;
otherwise that one box is solved. One plan lists each box's region pieces:
a region inside one box is reduced on a view of that box's flow, and a split
region's pieces are pasted into a canvas on its own bounding box, so its
pixels are reduced in the same row-major order either way.

Work that is the same for every pair is done once: the boxes, the region
crops and their places are fixed before the first pair, and each frame is
staged once (flow.stage_frame): its pyramid levels, if any, and the smoothed
box crops a pair reads (smoothing is the first step of the single-level
solve, so smoothing first and solving with sigma 0 is the same arithmetic).
A pair solves its coarser levels once, on the whole frames (flow.align_pair),
then each box at one level, on the first frame's staged crop and the second
frame's aligned input. Frame pairs are independent, so contiguous runs of
pairs are solved on a thread pool with one worker per available CPU; numpy
and scipy release the interpreter lock in decoding and the flow solve.
A run decodes its frames itself and carries each frame's stage to the next
pair, and reference mode stages frame 0 once, so frames are never all held
at once. solve_pair writes each pair's row in place by its index, so the
series is identical whatever the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError
# lucas_kanade is not called here but stays importable by this module's name:
# perfbench/tracing.py wraps both flow entry points where intensity looks them up.
from .flow import (  # noqa: F401
    FlowField,
    FlowParams,
    FrameStage,
    align_pair,
    bounding_box,
    finish_flow,
    flow_support,
    lucas_kanade,
    pyramidal_lk,
    stage_frame,
)
from .imageio import FrameSequence
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
                raise ConfigError(f"FlowVector components must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class IntensitySeries:
    """Mean displacement magnitude per region (columns) per frame (rows).

    frames[i] is the frame number row i describes, stored as int64; counts[i, j]
    is the number of valid flow pixels behind values[i, j]. A series loaded
    from CSV has no counts and "unknown" units and mode.
    """

    regions: tuple[str, ...]
    frames: np.ndarray
    values: np.ndarray
    units: str = "normalized"
    mode: str = "reference"
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.regions):
            raise ConfigError("values must be (n_frames, n_regions)")
        if self.frames.shape != (self.values.shape[0],):
            raise ConfigError("frames must have one entry per values row")
        if self.values.size == 0:
            raise DataError("series has no regions or no rows")
        # A float frame would be truncated when written; a uint64 one past int64 wraps negative.
        kind = self.frames.dtype.kind
        if kind not in "iu" or kind == "u" and (self.frames.astype(np.int64) < 0).any():
            raise DataError(f"frame numbers must be integers that fit in int64, got {self.frames.dtype}")
        object.__setattr__(self, "frames", self.frames.astype(np.int64, copy=False))
        for name in self.regions:
            if not name or not name.isprintable() or "," in name or name != name.strip():
                raise DataError(f"region name {name!r} must be non-empty printable text "
                                "with no comma and no leading or trailing space")
        duplicates = sorted({name for name in self.regions if self.regions.count(name) > 1})
        if duplicates:
            raise DataError(f"duplicate region name(s) {', '.join(duplicates)}")
        # Compared, not differenced: a difference overflows at the int64 extremes.
        unordered = np.flatnonzero(self.frames[1:] <= self.frames[:-1])
        if unordered.size:
            i = unordered[0]
            raise DataError(f"frame {self.frames[i + 1]} does not follow frame {self.frames[i]}; "
                            "frame numbers must be strictly increasing")
        _check_magnitudes(self.values,
                          lambda i, j: f"frame {self.frames[i]}, region {self.regions[j]!r}")
        if self.counts is not None:
            if self.counts.shape != self.values.shape:
                raise ConfigError("counts must have the shape of values")
            if self.counts.dtype.kind not in "iu" or (self.counts < 0).any():
                raise DataError("valid-pixel counts must be integers >= 0")
        if self.units not in ("normalized", "pixels", "unknown"):
            raise ConfigError(f"units must be 'normalized', 'pixels' or 'unknown', got {self.units!r}")
        if self.mode not in ("reference", "consecutive", "unknown"):
            raise ConfigError(f"mode must be 'reference', 'consecutive' or 'unknown', got {self.mode!r}")

    def column(self, name: str) -> np.ndarray:
        if name not in self.regions:
            raise ConfigError(f"no region named {name!r} in series")
        return self.values[:, self.regions.index(name)]


def _check_magnitudes(values: np.ndarray, where) -> None:
    """Raise DataError at the first value that is not finite and >= 0, named by where(*index)."""
    usable = np.isfinite(values) & (values >= 0)
    if not usable.all():
        index = tuple(np.argwhere(~usable)[0])
        raise DataError(f"{where(*index)}: magnitude {values[index]} is not finite and >= 0")


def displacement_magnitude(vec: FlowVector) -> float:
    """Euclidean displacement sqrt((xi - x)^2 + (yi - y)^2)."""
    return math.hypot(vec.xi - vec.x, vec.yi - vec.y)


def region_mean_magnitude(flow: FlowField, mask: np.ndarray) -> tuple[float, int]:
    """Mean displacement magnitude over mask & valid pixels, with that count.

    The mean is in pixels; (0.0, 0) when no pixel qualifies.
    """
    if mask.shape != flow.u.shape:
        raise DataError(
            f"mask is {mask.shape[1]}x{mask.shape[0]}, flow is {flow.u.shape[1]}x{flow.u.shape[0]}"
        )
    if mask.dtype != bool:
        raise DataError(f"mask must be boolean, got {mask.dtype}")
    selected = mask & flow.valid
    count = int(np.count_nonzero(selected))
    if count == 0:
        return 0.0, 0
    if count == selected.size:  # the same elements in the same row-major order, ungathered
        magnitudes = np.hypot(flow.u, flow.v).ravel()
    else:
        magnitudes = np.hypot(flow.u[selected], flow.v[selected])
    # The magnitudes keep the flow's precision and are summed in float64
    # (add.reduce with dtype= would sum in buffered chunks, in another order).
    # The sum divided by the count is what ndarray.mean computes.
    return float(np.add.reduce(magnitudes.astype(np.float64, copy=False)) / count), count


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
        raise DataError(f"need at least 2 frames for flow, got {len(seq)}")
    if mode not in ("reference", "consecutive"):
        raise ConfigError(f"mode must be 'reference' or 'consecutive', got {mode!r}")
    if (grid.width, grid.height) != (seq.width, seq.height):
        raise DataError(
            f"grid is {grid.width}x{grid.height}, frames are {seq.width}x{seq.height}"
        )

    names = region_map.names()
    masks = [region_mask(grid, region_map, name) for name in names]
    union = np.zeros((seq.height, seq.width), dtype=bool)
    for mask in masks:
        union |= mask
    boxes = _flow_boxes(union, params)
    # The plan, per box: (region, its piece's place in the box, the piece's
    # place on the region's canvas, or None when the box owns the whole region).
    plan: list[list] = [[] for _ in boxes]
    region_masks = []  # each region's mask on its own bounding box
    for j, mask in enumerate(masks):
        pieces = [(k, bounding_box(mask & owned)) for k, (_, owned) in enumerate(boxes)
                  if (mask & owned).any()]
        outer = bounding_box(mask)
        region_masks.append(mask[outer].copy())
        whole = len(pieces) == 1
        for k, inner in pieces:
            plan[k].append((j, _shift(inner, boxes[k][0]), None if whole else _shift(inner, outer)))
    flow_boxes = [box for box, _ in boxes]
    del masks, mask, union, boxes  # the plan keeps box-sized mask copies only

    # Each box is a single-level, sigma-0 solve on the first frame's smoothed
    # crop and the second's aligned input, finished with the prior that aligned it.
    solve_params = replace(params, smooth_sigma=0.0, pyramid_levels=1)
    # In reference mode a later frame is only ever a pair's second frame (see stage_frame).
    later_boxes = [] if mode == "reference" and params.pyramid_levels > 1 else flow_boxes

    def solve_pair(t: int, first: FrameStage, second: FrameStage) -> None:
        """Row t - 1: a one-box region reduced when its box is solved, a split one after the last box."""
        canvases = {}  # per split region, its pieces' flow, in the dtype of that flow
        for pieces, crop, (moved, prior) in zip(plan, first.crops,
                                                align_pair(first, second, flow_boxes, params)):
            flow = finish_flow(pyramidal_lk(crop, moved, solve_params), prior)
            for j, inner, place in pieces:
                view = FlowField(u=flow.u[inner], v=flow.v[inner], valid=flow.valid[inner])
                if place is None:
                    values[t - 1, j], counts[t - 1, j] = region_mean_magnitude(view, region_masks[j])
                else:
                    if j not in canvases:
                        canvases[j] = FlowField(*(np.zeros(region_masks[j].shape, a.dtype)
                                                  for a in (view.u, view.v, view.valid)))
                    canvas = canvases[j]
                    canvas.u[place], canvas.v[place], canvas.valid[place] = view.u, view.v, view.valid
        for j, canvas in canvases.items():
            values[t - 1, j], counts[t - 1, j] = region_mean_magnitude(canvas, region_masks[j])

    n = len(seq)
    pairs = n - 1
    values = np.zeros((pairs, len(names)), dtype=np.float64)
    counts = np.zeros((pairs, len(names)), dtype=np.int64)
    # Frame 0's stage is made once in reference mode; in consecutive mode a
    # run carries each frame's stage to its next pair.
    reference = stage_frame(seq[0], flow_boxes, params) if mode == "reference" else None

    def solve_run(start: int, stop: int) -> None:
        """Rows of pairs start..stop-1, each frame of the run decoded and staged once."""
        first = reference if reference is not None else stage_frame(seq[start - 1], flow_boxes, params)
        for t in range(start, stop):
            second = stage_frame(seq[t], later_boxes, params)
            solve_pair(t, first, second)
            if reference is None:
                first = second

    workers = min(_available_cpus(), pairs)
    # One worker solves every pair in one run. More take four contiguous runs
    # each, so that no worker waits long for the last run to end.
    n_runs = 1 if workers == 1 else min(pairs, 4 * workers)
    bounds = [1 + pairs * r // n_runs for r in range(n_runs + 1)]
    runs = zip(bounds, bounds[1:])
    # A run starts only when another has ended, so about two frames' stages
    # per worker are alive at once, plus the reference, and after a failure
    # no further run starts.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = {pool.submit(solve_run, *run) for run in islice(runs, workers)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for run in done:
                run.result()
            running |= {pool.submit(solve_run, *run) for run in islice(runs, len(done))}
    if normalize:  # by the image diagonal, once for the whole series
        values /= math.hypot(seq.width, seq.height)

    return IntensitySeries(
        regions=names,
        frames=np.arange(1, n, dtype=np.int64),
        values=values,
        units="normalized" if normalize else "pixels",
        mode=mode,
        counts=counts,
    )


def _flow_boxes(union: np.ndarray, params: FlowParams) -> list[tuple[tuple[slice, slice], np.ndarray]]:
    """The boxes each pair is solved on, each with the mask of the region pixels it owns.

    One flow box per group of region pixels joined by shared edges, when
    their areas sum to less than the one box around all regions (union, a
    mask); otherwise that one box.
    """
    from scipy.ndimage import label  # here: commands without it skip scipy

    whole = flow_support(union, params)
    labels, n_groups = label(union)
    groups = [labels == i for i in range(1, n_groups + 1)]
    boxes = [flow_support(group, params) for group in groups]
    if sum(_area(box) for box in boxes) < _area(whole):
        return list(zip(boxes, groups))
    return [(whole, union)]


def _area(box: tuple[slice, slice]) -> int:
    return (box[0].stop - box[0].start) * (box[1].stop - box[1].start)


def _shift(inner: tuple[slice, slice], outer: tuple[slice, slice]) -> tuple[slice, slice]:
    """Frame rows and columns inner, relative to the corner of outer."""
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
