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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, PyramidTooDeep
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
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius}")
        if self.smooth_sigma < 0:
            raise ValueError(f"smooth_sigma must be >= 0, got {self.smooth_sigma}")
        if self.eigen_threshold < 0:
            raise ValueError(f"eigen_threshold must be >= 0, got {self.eigen_threshold}")
        if self.pyramid_levels < 1:
            raise ValueError(f"pyramid_levels must be >= 1, got {self.pyramid_levels}")


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
            raise DimensionMismatch("flow rasters must share one shape")


def _require_same_shape(i1: Image, i2: Image) -> None:
    if i1.pixels.shape != i2.pixels.shape:
        raise DimensionMismatch(
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

    sigma = 0 returns the input unchanged.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
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
    """Single-level Lucas-Kanade on raw pixel arrays; returns (u, v, valid).

    The five tensor products share one (5, h, w) buffer that is box-summed and
    solved in place; beyond it the solve needs two scratch planes.
    """
    buf = np.empty((5, *a1.shape), dtype=np.float64)
    _gradients_into(_smooth_array(a1, p.smooth_sigma), _smooth_array(a2, p.smooth_sigma), buf)
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

    det = np.multiply(sxx, syy, out=lam_min)
    det -= np.multiply(sxy, sxy, out=scratch)
    # det > 0 guards the eigen_threshold = 0 edge, where lam_min >= 0 alone
    # would let singular tensors through.
    valid &= det > 0.0
    invalid = ~valid

    u = np.multiply(sxy, syt, out=scratch)
    u -= np.multiply(syy, sxt, out=syy)
    v = np.multiply(sxy, sxt, out=sxy)
    v -= np.multiply(sxx, syt, out=sxx)
    for num in (u, v):
        np.divide(num, det, out=num, where=valid)
        num[invalid] = 0.0
    # Free det's plane, then copy v out so the five-plane buffer dies on return.
    del det, lam_min
    return u, v.copy(), valid


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


def _warp_by_flow(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    h, w = a.shape
    return sample_bilinear(a, np.arange(w, dtype=np.float64) + u,
                           np.arange(h, dtype=np.float64)[:, None] + v)


def _box_downsample(a: np.ndarray) -> np.ndarray:
    # 2x2 box average; odd trailing rows/columns are dropped.
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    t = a[: 2 * h2, : 2 * w2]
    return 0.25 * (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2])


def _upsample_flow(f: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # Nearest-neighbor 2x upsampling; displacements double with resolution.
    ys = np.minimum(np.arange(shape[0]) // 2, f.shape[0] - 1)
    xs = np.minimum(np.arange(shape[1]) // 2, f.shape[1] - 1)
    up = f[np.ix_(ys, xs)]
    up *= 2.0
    return up


def _check_fits(width: int, height: int, p: FlowParams) -> None:
    """Reject windows, pyramids and smoothing kernels the frame cannot hold.

    Runs before anything is allocated, so an oversized parameter fails fast
    instead of allocating a raster sized by the parameter.
    """
    min_dim, levels = min(width, height), p.pyramid_levels
    side = 2 * p.window_radius + 1
    # The shift is bounded first, so a huge level count never builds a huge int.
    if levels - 1 >= min_dim.bit_length() or min_dim < side << (levels - 1):
        raise PyramidTooDeep(
            f"{levels} level(s) with window radius {p.window_radius} need min dimension "
            f">= 2^{levels - 1} * {side}, image is {width}x{height}"
        )
    # ceil(3 sigma) > min_dim exactly when 3 sigma > min_dim, and the float
    # comparison cannot overflow the way ceil(inf) does.
    if 3.0 * p.smooth_sigma > min_dim:
        raise PyramidTooDeep(
            f"smoothing sigma {p.smooth_sigma} needs a kernel radius ceil(3 sigma) "
            f"<= min dimension, image is {width}x{height}"
        )


def bounding_box(mask: np.ndarray) -> tuple[slice, slice]:
    """Rows and columns of mask's true pixels; empty slices for an empty mask."""
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def flow_support(region: np.ndarray, p: FlowParams) -> tuple[slice, slice]:
    """Frame rows and columns that pyramidal_lk needs for exact flow on a region.

    region is a boolean (height, width) mask. Single-level flow at a pixel
    reads the frame within window_radius + 1 + ceil(3 sigma) of it: the
    window, the central difference and the smoothing kernel. The support is
    the region's bounding box grown by that halo, clipped to the frame, and
    at least one window side long. With more than one pyramid level the warp
    samples at x + u, so the support is the whole frame, as it is for an
    empty region.

    Checks first that the frame fits p, so an error names the frame's size.
    """
    height, width = region.shape
    _check_fits(width, height, p)
    if p.pyramid_levels > 1 or not region.any():
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


def pyramidal_lk(i1: Image, i2: Image, p: FlowParams = FlowParams()) -> FlowField:
    """Coarse-to-fine flow for displacements beyond the ~1 px single-level range.

    Each level solves for the residual motion left after warping i2 by the
    upsampled coarser flow. With pyramid_levels = 1 it is the single-level
    solve, which lucas_kanade also runs.
    """
    _require_same_shape(i1, i2)
    _check_fits(i1.width, i1.height, p)

    levels = [(i1.pixels, i2.pixels)]
    for _ in range(p.pyramid_levels - 1):
        a1, a2 = levels[-1]
        levels.append((_box_downsample(a1), _box_downsample(a2)))

    u, v, valid = _solve_lk(*levels.pop(), p)
    for a1, a2 in reversed(levels):
        u = _upsample_flow(u, a1.shape)
        v = _upsample_flow(v, a1.shape)
        if u.any() or v.any():
            a2 = _warp_by_flow(a2, u, v)
        du, dv, valid = _solve_lk(a1, a2, p)
        u += du
        v += dv
    if p.pyramid_levels > 1:
        # Coarser estimates carry through pixels the finest level rejects.
        invalid = ~valid
        u[invalid] = 0.0
        v[invalid] = 0.0
    return FlowField(u=u, v=v, valid=valid)
