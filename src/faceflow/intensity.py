"""Per-region displacement-magnitude time series over a frame sequence.

Each series row holds, for one frame index, the mean Euclidean displacement
magnitude sqrt(u^2 + v^2) over a region's valid flow pixels. Reference mode
measures every frame against frame 0 (the neutral face); consecutive mode
measures frame-to-frame motion. The finished series is optionally divided by
the image diagonal, once, so its values are resolution-independent.

Flow is solved only on flow boxes: a box is the bounding box of some region
cells grown by the single-level flow's support halo (see flow.flow_support),
the part of the frame the cells' flow depends on. Claimed cells that share an
edge form a group, and each group gets its own box when the group boxes
together are smaller than the one box around all regions; otherwise that one
box is solved. At one pyramid level each box is solved on its own crops. A
pyramid is called once per pair on the whole frames with the groups' masks:
it solves its coarser levels on the whole frames and its finest level on each
box, where the single-level halo holds because the warp samples the whole
second frame. A region inside one box is reduced on a view of that box's
flow; a region whose cells lie in several groups is pasted from their boxes
into its own bounding box first, so its pixels are reduced in the same
row-major order either way.

Work that is the same for every pair is done once per run: at one pyramid
level each box's reference crop is smoothed once (smoothing is the first step
of the single-level solve, so smoothing first and solving with sigma 0 is the
same arithmetic), and the boxes, the region crops and their places are fixed
before the first pair. Frame pairs are independent, so they are solved on a
thread pool with one worker per available CPU; numpy and scipy release the
interpreter lock in the flow solve. Each pair's row is stored by its index,
so the series is identical whatever the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
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
    selected = mask & flow.valid
    count = np.count_nonzero(selected)
    if count == 0:
        return 0.0, 0
    if count == selected.size:  # the same elements in the same row-major order, ungathered
        magnitudes = np.hypot(flow.u, flow.v).ravel()
    else:
        magnitudes = np.hypot(flow.u[selected], flow.v[selected])
    # The sum divided by the count is what ndarray.mean computes.
    return float(np.add.reduce(magnitudes) / count), count


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
    boxes = _flow_boxes(grid, region_map, union, params)
    # Each region is reduced on its own bounding box: a view of the one box
    # that owns all its pixels, or else a canvas its pieces are pasted into.
    views: list[list] = [[] for _ in boxes]  # per box: (region, its place in the box, mask)
    pastes: list[list] = [[] for _ in boxes]  # per box: (region, piece's place on canvas, in box)
    canvases: dict[int, np.ndarray] = {}  # region: its mask on its own bounding box
    for j, mask in enumerate(masks):
        pieces = [(k, bounding_box(mask & owned)) for k, (_, owned) in enumerate(boxes)
                  if (mask & owned).any()]
        if len(pieces) == 1:
            (k, inner), = pieces
            views[k].append((j, _shift(inner, boxes[k][0]), mask[inner]))
        else:
            outer = bounding_box(mask)
            canvases[j] = mask[outer]
            for k, inner in pieces:
                pastes[k].append((j, _shift(inner, outer), _shift(inner, boxes[k][0])))

    # At one level the frames are smoothed here, the reference only once, and
    # each box is solved on its own crops. A pyramid solves its coarse levels
    # on the whole frames and smooths inside pyramidal_lk, after its warp, so
    # it takes the groups and is called once per pair.
    one_level = params.pyramid_levels == 1
    solve_params = replace(params, smooth_sigma=0.0)

    def crop(t: int, box: tuple[slice, slice]) -> Image:
        return gaussian_smooth(Image(seq[t].pixels[box]), params.smooth_sigma)

    references = [crop(0, box) for box, _ in boxes] if one_level and mode == "reference" else None

    def box_flows(t: int):
        """Pair t's flow on each box, in box order; at one level each is solved when asked for."""
        if one_level:
            for k, (box, _) in enumerate(boxes):
                first = references[k] if references is not None else crop(t - 1, box)
                yield pyramidal_lk(first, crop(t, box), solve_params)
        elif boxes:
            first = seq[0] if mode == "reference" else seq[t - 1]
            flow = pyramidal_lk(first, seq[t], params, groups=[owned for _, owned in boxes])
            for box, _ in boxes:
                yield FlowField(u=flow.u[box], v=flow.v[box], valid=flow.valid[box])

    def pair_row(t: int) -> list[tuple[float, int]]:
        row = [None] * len(names)
        pasted = {j: FlowField(u=np.zeros(mask.shape), v=np.zeros(mask.shape),
                               valid=np.zeros(mask.shape, dtype=bool))
                  for j, mask in canvases.items()}
        for k, flow in enumerate(box_flows(t)):
            for j, inner, mask in views[k]:
                row[j] = region_mean_magnitude(
                    FlowField(u=flow.u[inner], v=flow.v[inner], valid=flow.valid[inner]), mask
                )
            for j, to, source in pastes[k]:
                canvas = pasted[j]
                canvas.u[to], canvas.v[to] = flow.u[source], flow.v[source]
                canvas.valid[to] = flow.valid[source]
        for j, canvas in pasted.items():
            row[j] = region_mean_magnitude(canvas, canvases[j])
        return row

    n = len(seq)
    values = np.zeros((n - 1, len(names)), dtype=np.float64)
    counts = np.zeros((n - 1, len(names)), dtype=np.int64)
    # Peak memory grows by about one pair's working set per extra worker.
    with ThreadPoolExecutor(max_workers=min(_available_cpus(), n - 1)) as pool:
        for i, row in enumerate(pool.map(pair_row, range(1, n))):
            for j, (value, count) in enumerate(row):
                values[i, j], counts[i, j] = value, count
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


def _flow_boxes(
    grid: GridSpec, region_map: RegionMap, union: np.ndarray, params: FlowParams
) -> list[tuple[tuple[slice, slice], np.ndarray]]:
    """The boxes each pair is solved on, each with the mask of the region pixels it owns.

    One box per group of claimed cells joined by shared edges, when their
    areas sum to less than the one box around all regions (union, a mask);
    otherwise that one box. Boxes take the single-level support at any
    pyramid depth: a pyramid solves only its finest level on them.
    """
    # Checks the fit with the real params, before anything is smoothed.
    flow_support(union, params)
    one_level = replace(params, pyramid_levels=1)
    whole = flow_support(union, one_level)
    groups = [region_mask(grid, RegionMap({"group": cells}), "group")
              for cells in _cell_groups(region_map)]
    boxes = [flow_support(group, one_level) for group in groups]
    if sum(_area(box) for box in boxes) < _area(whole):
        return list(zip(boxes, groups))
    return [(whole, union)]


def _cell_groups(region_map: RegionMap) -> list[frozenset[tuple[int, int]]]:
    """Claimed cells split into groups joined by shared edges, ordered by first cell."""
    ungrouped = set().union(*region_map.regions.values())
    groups = []
    while ungrouped:
        frontier = [min(ungrouped)]
        group = set(frontier)
        ungrouped -= group
        while frontier:
            row, col = frontier.pop()
            near = {(row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)} & ungrouped
            ungrouped -= near
            group |= near
            frontier.extend(near)
        groups.append(frozenset(group))
    return groups


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
