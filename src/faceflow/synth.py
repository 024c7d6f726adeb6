"""Synthetic frame sequences with exactly known ground-truth motion.

These generators stand in for real face videos in tests: a band-limited
texture gives the solver something to grip, and frames are rendered by
backward-warping that texture through a displacement field that is known
exactly. Global translations exercise the flow solver directly; region-bound
"expression" sequences exercise the full series/report pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeTooLarge, DimensionMismatch, ExcessiveShift, TooSmall, UnknownRegion
from .flow import sample_bilinear
from .imageio import FrameSequence, Image
from .regions import GridSpec, RegionMap, region_mask

__all__ = [
    "GroundTruth",
    "RegionMotion",
    "make_texture",
    "translate_sequence",
    "synth_expression",
]

_FEATHER_PX = 4.0


@dataclass(frozen=True)
class RegionMotion:
    """Horizontal push of one region, ramping 0 -> amplitude -> 0 in pixels.

    The ramp is piecewise linear: zero at the onset frame, amplitude at the
    apex frame, zero again at the offset frame and beyond.
    """

    region: str
    amplitude: float
    onset: int
    apex: int
    offset: int

    def __post_init__(self) -> None:
        if not 0 <= self.onset <= self.apex <= self.offset:
            raise ValueError(
                f"need 0 <= onset <= apex <= offset, got "
                f"{self.onset}/{self.apex}/{self.offset}"
            )
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact displacement of every frame relative to frame 0.

    Translation sequences store per-frame cumulative (dx, dy) shifts;
    expression sequences store a static spatial weight field per active region
    plus that region's per-frame horizontal amplitude.
    """

    width: int
    height: int
    active_regions: tuple[str, ...] = ()
    shifts: np.ndarray | None = None
    weights: dict[str, np.ndarray] | None = None
    profiles: dict[str, np.ndarray] | None = None

    def field(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel (dx, dy) displacement of frame t, shape (height, width)."""
        du = np.zeros((self.height, self.width), dtype=np.float64)
        dv = np.zeros_like(du)
        if self.shifts is not None:
            du += self.shifts[t, 0]
            dv += self.shifts[t, 1]
        if self.weights is not None and self.profiles is not None:
            for name in self.active_regions:
                du += self.weights[name] * self.profiles[name][t]
        return du, dv


def _render(base: Image, truth: GroundTruth, n: int) -> FrameSequence:
    """Frame 0 is base; frame t samples base bilinearly at each pixel minus truth.field(t)."""
    ys, xs = np.indices(base.pixels.shape, dtype=np.float64)
    frames = [base]
    for t in range(1, n):
        du, dv = truth.field(t)
        frames.append(Image(sample_bilinear(base.pixels, xs - du, ys - dv)))
    return FrameSequence(tuple(frames))


def make_texture(width: int, height: int, seed: int) -> Image:
    """Deterministic band-limited texture: 8 random sinusoids, range [0.1, 0.9].

    Wavelengths are drawn from 8..64 px so gradients exist at every scale the
    flow window sees. Identical seeds give bit-identical images.
    """
    if width < 16 or height < 16:
        raise TooSmall(f"texture needs dimensions >= 16, got {width}x{height}")
    rng = np.random.default_rng(seed)
    ys, xs = np.indices((height, width), dtype=np.float64)
    tex = np.zeros((height, width), dtype=np.float64)
    for _ in range(8):
        wavelength = rng.uniform(8.0, 64.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        k = 2.0 * math.pi / wavelength
        tex += np.sin(k * (xs * math.cos(angle) + ys * math.sin(angle)) + phase)
    lo, hi = float(tex.min()), float(tex.max())
    if hi == lo:
        return Image(np.full((height, width), 0.5))
    t = (tex - lo) / (hi - lo)
    # Lerp form hits 0.1 and 0.9 exactly at the extremes; clip guards the
    # one-ULP overshoot possible in between.
    return Image(np.clip((1.0 - t) * 0.1 + t * 0.9, 0.1, 0.9))


def translate_sequence(
    base: Image, dx: float, dy: float, n: int
) -> tuple[FrameSequence, GroundTruth]:
    """Render n frames translating `base` by (dx, dy) pixels per frame.

    Frame t shows the texture shifted by (dx*t, dy*t), sampled bilinearly with
    replicate border, so the true flow from frame 0 to frame t is exactly that
    cumulative shift.
    """
    if n < 2:
        raise ValueError(f"need at least 2 frames, got {n}")
    limit = min(base.width, base.height) / 4.0
    if abs(dx) * n >= limit or abs(dy) * n >= limit:
        raise ExcessiveShift(
            f"cumulative shift ({abs(dx) * n:g}, {abs(dy) * n:g}) px must stay "
            f"under min dimension / 4 = {limit:g} px"
        )
    shifts = np.zeros((n, 2), dtype=np.float64)
    for t in range(1, n):
        shifts[t] = (dx * t, dy * t)
    truth = GroundTruth(width=base.width, height=base.height, shifts=shifts)
    return _render(base, truth, n), truth


def _profile(n: int, onset: int, apex: int, offset: int) -> np.ndarray:
    t = np.arange(n, dtype=np.float64)
    return np.interp(t, [onset, apex, offset], [0.0, 1.0, 0.0])


def synth_expression(
    width: int,
    height: int,
    grid: GridSpec,
    region_map: RegionMap,
    motions: list[RegionMotion] | tuple[RegionMotion, ...],
    n: int,
    seed: int,
) -> tuple[FrameSequence, GroundTruth]:
    """Render n frames where only the given regions move, per their profiles.

    Each active region's pixels shift horizontally by amplitude * profile(t),
    feathered to zero within 4 px of the region boundary so the displacement
    field stays smooth. Pixels outside the active regions never move: the
    ground truth is exactly zero there and those frame pixels equal frame 0.
    """
    if n < 2:
        raise ValueError(f"need at least 2 frames, got {n}")
    if (grid.width, grid.height) != (width, height):
        raise DimensionMismatch(
            f"grid is {grid.width}x{grid.height}, requested frames are {width}x{height}"
        )
    cell_min = min(grid.width // grid.cols, grid.height // grid.rows)
    limit = cell_min / 4.0
    weights: dict[str, np.ndarray] = {}
    profiles: dict[str, np.ndarray] = {}
    from scipy.ndimage import distance_transform_edt  # here: commands without it skip scipy

    for motion in motions:
        if motion.region not in region_map:
            raise UnknownRegion(f"no region named {motion.region!r}")
        if motion.region in weights:
            raise ValueError(f"region {motion.region!r} given twice")
        if motion.offset > n - 1:
            raise ValueError(
                f"offset frame {motion.offset} beyond last frame {n - 1}"
            )
        if motion.amplitude >= limit:
            raise AmplitudeTooLarge(
                f"amplitude {motion.amplitude:g} px must stay under "
                f"cell size / 4 = {limit:g} px"
            )
        mask = region_mask(grid, region_map, motion.region)
        depth = distance_transform_edt(mask)
        weights[motion.region] = np.minimum(depth / _FEATHER_PX, 1.0)
        profiles[motion.region] = motion.amplitude * _profile(
            n, motion.onset, motion.apex, motion.offset
        )

    base = make_texture(width, height, seed)
    truth = GroundTruth(
        width=width,
        height=height,
        active_regions=tuple(m.region for m in motions),
        weights=weights,
        profiles=profiles,
    )
    return _render(base, truth, n), truth
