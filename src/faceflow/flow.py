"""Dense Lucas-Kanade optical flow.

The brightness constancy constraint ix*u + iy*v + it = 0 is solved per pixel
by least squares over a square window, i.e. the 2x2 normal equations

    [sum ix*ix  sum ix*iy] [u]   [sum ix*it]
    [sum ix*iy  sum iy*iy] [v] = -[sum iy*it]

with window sums taken over the (2r+1)^2 neighborhood clipped to the image.
The solve divides every sum by (2r+1)^2, which leaves (u, v) unchanged.
Pixels whose structure tensor is near-singular (aperture problem, flat
patches) are marked invalid. A coarse-to-fine pyramid extends the usable
displacement range beyond the ~1 px linearization limit.

Flow on boxes of a frame takes three steps. stage_frame readies each frame
once: its pyramid levels and the smoothed crops of the boxes a pair reads.
align_pair solves a pair's coarser levels once, on the whole frames, and
gives each box the second frame's aligned, smoothed input and a prior flow.
finish_flow adds the prior to the finest level's solve. pyramidal_lk runs
them on one whole-frame box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .imageio import Image

__all__ = [
    "FlowParams",
    "GradientField",
    "FlowField",
    "gaussian_smooth",
    "spatiotemporal_gradients",
    "lucas_kanade",
    "pyramidal_lk",
    "sample_bilinear",
]


@dataclass(frozen=True)
class FlowParams:
    """Solver parameters; defaults suit normalized-intensity face frames."""

    window_radius: int = 7
    smooth_sigma: float = 1.0
    eigen_threshold: float = 1e-6
    pyramid_levels: int = 1

    def __post_init__(self) -> None:
        for name in ("smooth_sigma", "eigen_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.window_radius < 1:
            raise ConfigError(f"window_radius must be >= 1, got {self.window_radius}")
        if self.smooth_sigma < 0:
            raise ConfigError(f"smooth_sigma must be >= 0, got {self.smooth_sigma}")
        if self.eigen_threshold < 0:
            raise ConfigError(f"eigen_threshold must be >= 0, got {self.eigen_threshold}")
        if self.pyramid_levels < 1:
            raise ConfigError(f"pyramid_levels must be >= 1, got {self.pyramid_levels}")


class GradientField(NamedTuple):
    """Spatiotemporal derivatives of a frame pair, one raster per axis."""

    ix: np.ndarray
    iy: np.ndarray
    it: np.ndarray


@dataclass(frozen=True, eq=False)
class FlowField:
    """Per-pixel displacement (u, v) in pixels plus a validity mask.

    Wherever valid is false, u and v are zero.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        if not (self.u.shape == self.v.shape == self.valid.shape):
            raise DataError("flow rasters must share one shape")


def _require_same_shape(i1: Image, i2: Image) -> None:
    if i1.pixels.shape != i2.pixels.shape:
        raise DataError(
            f"frames are {i1.width}x{i1.height} and {i2.width}x{i2.height}"
        )


def _smooth_array(pixels: np.ndarray, sigma: float) -> np.ndarray:
    if sigma == 0:
        return pixels
    from scipy.ndimage import correlate1d  # here: commands without it skip scipy

    radius = math.ceil(3 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # Below sigma ~ 1e-154, 2 sigma^2 is subnormal or 0, and the exponent
    # would overflow or be 0/0. Floored at the smallest normal float it stays
    # finite, and the weights are an exact delta, as for any sigma below ~0.03.
    two_var = max(2.0 * sigma * sigma, np.finfo(np.float64).tiny)
    kernel = np.exp(-(offsets * offsets) / two_var)
    kernel /= kernel.sum()
    out = correlate1d(pixels, kernel, axis=0, mode="nearest")
    correlate1d(out, kernel, axis=1, output=out, mode="nearest")
    # Rounding can push values a hair outside [0, 1]; clamp to keep the
    # image invariant.
    return np.clip(out, 0.0, 1.0, out=out)


def gaussian_smooth(img: Image, sigma: float) -> Image:
    """Separable Gaussian blur, kernel radius ceil(3*sigma), replicate border.

    sigma = 0 returns the input unchanged. sigma is checked as FlowParams'
    smooth_sigma is, and its kernel radius must fit the image.
    """
    FlowParams(smooth_sigma=sigma)  # finite and >= 0
    _check_sigma_fits(sigma, img.width, img.height)
    if sigma == 0:
        return img
    return Image(_smooth_array(img.pixels, sigma))


def _central_diff(a: np.ndarray, axis: int, out: np.ndarray) -> None:
    # Derivative kernel [-1/2, 0, +1/2] with replicate border, written to out.
    a, d = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    last = a.shape[0] - 1
    np.subtract(a[2:], a[:-2], out=d[1:-1])
    np.subtract(a[min(1, last)], a[0], out=d[0])
    np.subtract(a[last], a[max(last - 1, 0)], out=d[last])
    d *= 0.5


def _gradients_into(a1: np.ndarray, a2: np.ndarray, out: np.ndarray) -> None:
    """Write ix, iy (of the frame average) and it = a2 - a1 into out[0], out[1], out[2]."""
    avg = np.add(a1, a2, out=out[2])
    avg *= 0.5
    _central_diff(avg, 1, out[0])
    _central_diff(avg, 0, out[1])
    np.subtract(a2, a1, out=out[2])


def spatiotemporal_gradients(i1: Image, i2: Image) -> GradientField:
    """Central-difference spatial derivatives of the frame average, it = i2 - i1."""
    _require_same_shape(i1, i2)
    grads = np.empty((3, *i1.pixels.shape), dtype=np.float64)
    _gradients_into(i1.pixels, i2.pixels, grads)
    return GradientField(ix=grads[0], iy=grads[1], it=grads[2])


def _window_means(planes: np.ndarray, radius: int) -> np.ndarray:
    """Sum each pixel's (2r+1)^2 window over the last two axes, divided by (2r+1)^2.

    Works in place with a separable zero-padded box filter, so pixels outside
    the image add exactly zero: the clipped window sum. The filter keeps a
    running sum along each row, then each column, so its rounding error grows
    with one side of the frame, not with its area as an integral image's does.
    """
    from scipy.ndimage import uniform_filter1d  # here: commands without it skip scipy

    for axis in (-2, -1):
        uniform_filter1d(planes, 2 * radius + 1, axis=axis, output=planes, mode="constant")
    return planes


def _window_coverage(n: int, radius: int) -> np.ndarray:
    # Share of a (2r+1)-pixel window that lies inside an n-pixel axis.
    idx = np.arange(n)
    inside = np.minimum(idx + radius + 1, n) - np.maximum(idx - radius, 0)
    return inside / (2 * radius + 1)


def _solve_lk(a1: np.ndarray, a2: np.ndarray, p: FlowParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-level Lucas-Kanade on arrays smoothed with p.smooth_sigma; returns (u, v, valid).

    The five tensor products share one (5, h, w) buffer that is box-summed and
    solved in place; u and v are the two scratch planes beyond it.
    """
    buf = np.empty((5, *a1.shape), dtype=np.float64)
    _gradients_into(a1, a2, buf)
    ix, iy, it = buf[0], buf[1], buf[2]
    np.multiply(ix, it, out=buf[3])
    np.multiply(iy, it, out=buf[4])
    np.multiply(iy, iy, out=buf[2])  # it is no longer needed
    np.multiply(ix, iy, out=buf[1])
    np.multiply(ix, ix, out=buf[0])
    sxx, sxy, syy, sxt, syt = _window_means(buf, p.window_radius)

    # Smaller eigenvalue of the structure tensor, per window pixel.
    lam_min = np.subtract(sxx, syy)
    lam_min *= lam_min
    scratch = np.multiply(sxy, sxy)
    scratch *= 4.0
    lam_min += scratch
    np.sqrt(lam_min, out=lam_min)
    np.subtract(np.add(sxx, syy, out=scratch), lam_min, out=lam_min)
    lam_min *= 0.5
    # The threshold applies per window pixel that lies inside the image.
    h, w = a1.shape
    np.multiply.outer(
        _window_coverage(h, p.window_radius), _window_coverage(w, p.window_radius), out=scratch
    )
    scratch *= p.eigen_threshold
    valid = lam_min >= scratch

    v = np.multiply(sxy, sxt, out=lam_min)
    u = np.multiply(sxy, syt, out=scratch)
    u -= np.multiply(syy, sxt, out=sxt)
    v -= np.multiply(sxx, syt, out=syt)
    det = np.multiply(sxx, syy, out=sxt)
    det -= np.multiply(sxy, sxy, out=syt)
    # det > 0 guards the eigen_threshold = 0 edge, where lam_min >= 0 alone
    # would let singular tensors through.
    valid &= det > 0.0
    invalid = ~valid
    for num in (u, v):
        np.divide(num, det, out=num, where=valid)
        num[invalid] = 0.0
    return u, v, valid


def lucas_kanade(i1: Image, i2: Image, p: FlowParams = FlowParams()) -> FlowField:
    """Dense single-level flow from i1 to i2: I2(x + u, y + v) ~ I1(x, y).

    pyramidal_lk at one level: both frames are pre-smoothed with
    p.smooth_sigma, and p.pyramid_levels is ignored.
    """
    return pyramidal_lk(i1, i2, replace(p, pyramid_levels=1))


def sample_bilinear(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a 2-D array at real coordinates, clamping to the border.

    Exact copy at integer coordinates; replicate-border beyond the edges.
    """
    h, w = values.shape
    fx = np.clip(xs, 0.0, float(w - 1))
    fy = np.clip(ys, 0.0, float(h - 1))
    x0 = np.floor(fx)
    np.minimum(x0, max(w - 2, 0), out=x0)
    y0 = np.floor(fy)
    np.minimum(y0, max(h - 2, 0), out=y0)
    fx -= x0
    fy -= y0
    # Flat index of the top-left neighbour; the right and lower neighbours
    # sit one column and one row further on, except along an axis of length 1.
    corner = y0.astype(np.intp)
    corner *= w
    corner += x0.astype(np.intp)
    del x0, y0
    flat = values.ravel()

    def lerp_x(row_start: int) -> np.ndarray:
        row = np.take(flat[row_start:], corner)
        row *= 1.0 - fx
        right = np.take(flat[row_start + int(w > 1):], corner)
        right *= fx
        row += right
        return row

    top = lerp_x(0)
    bottom = lerp_x(w * int(h > 1))
    del corner, fx
    top *= 1.0 - fy
    bottom *= fy
    top += bottom
    return top


def _box_downsample(a: np.ndarray) -> np.ndarray:
    # 2x2 box average; odd trailing rows/columns are dropped.
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    t = a[: 2 * h2, : 2 * w2]
    return 0.25 * (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2])


def _aligned(
    a: np.ndarray, u: np.ndarray, v: np.ndarray, box: tuple[slice, slice]
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """a on box sampled at x + prior, and the prior: the coarser level's (u, v)
    upsampled 2x to a's shape by nearest neighbour, on box only.

    Displacements double with resolution. The shifted points may lie anywhere
    in a; where the prior is zero, sample_bilinear copies a's pixels exactly.
    """
    rows, cols = np.arange(a.shape[0])[box[0]], np.arange(a.shape[1])[box[1]]
    ys, xs = np.minimum(rows // 2, u.shape[0] - 1), np.minimum(cols // 2, u.shape[1] - 1)
    prior = u.take(ys, axis=0).take(xs, axis=1), v.take(ys, axis=0).take(xs, axis=1)
    for f in prior:
        f *= 2.0
    return sample_bilinear(a, cols + prior[0], rows[:, None] + prior[1]), prior


def _check_fits(width: int, height: int, p: FlowParams) -> None:
    """Reject windows, pyramids and smoothing kernels the frame cannot hold.

    Runs before anything is allocated, so an oversized parameter fails fast
    instead of allocating a raster sized by the parameter.
    """
    min_dim, levels = min(width, height), p.pyramid_levels
    side = 2 * p.window_radius + 1
    # The shift is bounded first, so a huge level count never builds a huge int.
    if levels - 1 >= min_dim.bit_length() or min_dim < side << (levels - 1):
        raise ConfigError(
            f"{levels} level(s) with window radius {p.window_radius} need min dimension "
            f">= 2^{levels - 1} * {side}, image is {width}x{height}"
        )
    _check_sigma_fits(p.smooth_sigma, width, height)


def _check_sigma_fits(sigma: float, width: int, height: int) -> None:
    # ceil(3 sigma) > min_dim exactly when 3 sigma > min_dim, and the float
    # comparison cannot overflow the way ceil(inf) does.
    if 3.0 * sigma > min(width, height):
        raise ConfigError(
            f"smoothing sigma {sigma} needs a kernel radius ceil(3 sigma) "
            f"<= min dimension, image is {width}x{height}"
        )


def bounding_box(mask: np.ndarray) -> tuple[slice, slice]:
    """Rows and columns of mask's true pixels; empty slices for an empty mask."""
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def flow_support(region: np.ndarray, p: FlowParams) -> tuple[slice, slice]:
    """The flow box of a region: the frame rows and columns its single-level flow reads.

    The one statement of the box rule. region is a boolean (height, width)
    mask. Flow at a pixel reads the frame within window_radius + 1 +
    ceil(3 sigma) of it: the window, the central difference and the smoothing
    kernel. The box is the region's bounding box grown by that halo, clipped
    to the frame and at least one window side long; an empty region's box is
    the whole frame. It holds at any pyramid depth: only the finest level is
    solved on a box, and align_pair's warp samples the whole second frame.

    Checks first that the frame fits all of p, so an error names its size.
    """
    height, width = region.shape
    _check_fits(width, height, p)
    if not region.any():
        return slice(0, height), slice(0, width)
    halo = p.window_radius + 1 + math.ceil(3 * p.smooth_sigma)
    side = 2 * p.window_radius + 1

    def grow(inside: slice, n: int) -> slice:
        lo, hi = max(inside.start - halo, 0), min(inside.stop + halo, n)
        if hi - lo < side:  # clipped at a frame edge; the frame fits a side
            lo = min(lo, n - side)
            hi = lo + side
        return slice(lo, hi)

    rows, cols = bounding_box(region)
    return grow(rows, height), grow(cols, width)


class FrameStage(NamedTuple):
    """A frame made ready, once, for flow on a list of boxes.

    Under a pyramid, levels holds the frame itself, which align_pair warps,
    and then its coarser levels; at one level it is empty. crops holds the
    frame's smoothed crop to each box it was staged for.
    """

    levels: list[np.ndarray]
    crops: list[Image]


def stage_frame(frame: Image, boxes: list[tuple[slice, slice]], p: FlowParams) -> FrameStage:
    """The frame's stage for flow with p, with each of boxes cropped and smoothed.

    Under a pyramid a pair reads only its first frame's crops, as align_pair
    warps the second's levels[0]: pass no boxes for a frame that is only ever
    a pair's second frame.
    """
    levels = [frame.pixels] if p.pyramid_levels > 1 else []
    for _ in range(p.pyramid_levels - 1):
        levels.append(_box_downsample(levels[-1]))
    return FrameStage(levels, [Image(_smooth_array(frame.pixels[box], p.smooth_sigma)) for box in boxes])


def align_pair(first: FrameStage, second: FrameStage, boxes: list[tuple[slice, slice]],
               p: FlowParams):
    """For each box, the second frame's smoothed finest-level input and the prior flow.

    At one level the input is second's staged crop and the prior is None.
    Under a pyramid the coarser levels, levels[1:], are solved once, on the
    whole frames, when the first box is asked for: each level solves for the
    residual motion left after warping by the flow of the level below. A
    box's prior (u, v) is their flow upsampled to it, and its input is
    second.levels[0] sampled at x + prior, then smoothed.
    """
    if not second.levels:
        yield from ((crop, None) for crop in second.crops)
        return
    levels = reversed(list(zip(first.levels[1:], second.levels[1:])))
    a1, a2 = next(levels)  # the coarsest level has no prior
    u, v, _ = _solve_lk(_smooth_array(a1, p.smooth_sigma), _smooth_array(a2, p.smooth_sigma), p)
    for a1, a2 in levels:
        a2, (pu, pv) = _aligned(a2, u, v, (slice(None), slice(None)))
        u, v, _ = _solve_lk(_smooth_array(a1, p.smooth_sigma), _smooth_array(a2, p.smooth_sigma), p)
        u += pu
        v += pv
    for box in boxes:
        moved, prior = _aligned(second.levels[0], u, v, box)
        yield Image(_smooth_array(moved, p.smooth_sigma)), prior


def finish_flow(flow: FlowField, prior: tuple[np.ndarray, np.ndarray] | None) -> FlowField:
    """flow, solved on an input aligned by prior, plus prior, and zero wherever invalid.

    Works in place. Without the zeroing, coarser estimates would carry
    through pixels the finest level rejects.
    """
    if prior is not None:
        invalid = ~flow.valid
        for solved, coarse in zip((flow.u, flow.v), prior):
            solved += coarse
            solved[invalid] = 0.0
    return flow


def pyramidal_lk(i1: Image, i2: Image, p: FlowParams = FlowParams()) -> FlowField:
    """Coarse-to-fine flow for displacements beyond the ~1 px single-level range.

    The staged path on one whole-frame box: stage_frame, align_pair, the
    finest level solved on the smoothed inputs, and finish_flow. With
    pyramid_levels = 1 it is the single-level solve, which lucas_kanade
    also runs.
    """
    _require_same_shape(i1, i2)
    _check_fits(i1.width, i1.height, p)
    whole = [(slice(0, i1.height), slice(0, i1.width))]
    first, second = stage_frame(i1, whole, p), stage_frame(i2, [] if p.pyramid_levels > 1 else whole, p)
    (moved, prior), = align_pair(first, second, whole, p)
    u, v, valid = _solve_lk(first.crops[0].pixels, moved.pixels, p)
    return finish_flow(FlowField(u=u, v=v, valid=valid), prior)
