"""Synthetic frame sequences with exactly known ground-truth motion.

These generators stand in for real face videos in tests: a band-limited
texture gives the solver something to grip, and frames are rendered by
backward-warping that texture through a displacement field that is known
exactly. Global translations exercise the flow solver directly; region-bound
"expression" sequences exercise the full series/report pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError, DataError
from .flow import sample_bilinear
from .imageio import FrameSequence, Image, _DeferredFrame
from .regions import GridSpec, RegionMap, region_mask

__all__ = [
    "GroundTruth",
    "RegionMotion",
    "make_texture",
    "translate_sequence",
    "synth_expression",
]

_FEATHER_PX = 4.0


def _check_size(width: int, height: int, n: int) -> None:
    """2**40 pixels is far above any memory and far below what numpy can address."""
    if width * height * n > 2**40:
        raise ConfigError(f"{n} frame(s) of {width}x{height} exceed 2**40 pixels")


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
            raise ConfigError(
                f"need 0 <= onset <= apex <= offset, got "
                f"{self.onset}/{self.apex}/{self.offset}"
            )
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ConfigError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.amplitude > 0 and self.apex == self.offset:  # the ramp would never reach it
            raise ConfigError(
                f"apex must come before offset when amplitude > 0, got {self.apex}/{self.offset}"
            )
        if self.amplitude > 0 and self.apex == 0:  # frame 0 is the undisplaced reference
            raise ConfigError("apex must come after frame 0 when amplitude > 0")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact displacement of every frame relative to frame 0.

    Translation sequences store per-frame cumulative (dx, dy) shifts;
    expression sequences store a static spatial weight field per active region
    plus that region's per-frame horizontal amplitude.
    """

    width: int
    height: int
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
            for name, profile in self.profiles.items():
                du += self.weights[name] * profile[t]
        return du, dv


def _render(base: Image, truth: GroundTruth, n: int) -> FrameSequence:
    """n frames: base, then base sampled bilinearly at each pixel minus truth.field(t).

    Each frame after base is rendered each time the sequence is indexed, so
    none is kept. Only the pixels that some region can move are sampled; the
    rest copy frame 0, which is what sampling them at zero displacement gives
    bit for bit.
    """
    if truth.weights is None:
        moving = np.arange(base.pixels.size)
    else:
        moving = np.flatnonzero(np.any([w != 0 for w in truth.weights.values()], axis=0))
    # The moving pixels as one 1 x len(moving) row, so field() sums them as it would in place.
    weights = {name: w.reshape(1, -1)[:, moving] for name, w in (truth.weights or {}).items()}
    row = replace(truth, width=moving.size, height=1, weights=weights)
    ys, xs = (c.astype(np.float64) for c in np.divmod(moving, base.width))

    def frame(t: int) -> Image:
        du, dv = row.field(t)
        pixels = base.pixels.copy()
        pixels.reshape(-1)[moving] = sample_bilinear(base.pixels, xs - du[0], ys - dv[0])
        return Image(pixels)

    later = (_DeferredFrame(base.width, base.height, partial(frame, t)) for t in range(1, n))
    return FrameSequence((base, *later))


def make_texture(width: int, height: int, seed: int) -> Image:
    """Deterministic band-limited texture: 8 random sinusoids, range [0.1, 0.9].

    Wavelengths are drawn from 8..64 px so gradients exist at every scale the
    flow window sees. Identical seeds give bit-identical images.
    """
    if width < 16 or height < 16:
        raise ConfigError(f"texture needs dimensions >= 16, got {width}x{height}")
    _check_size(width, height, 1)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
    cumulative shift. The arguments are checked here; each frame is rendered
    when the sequence is indexed.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 frames, got {n}")
    _check_size(base.width, base.height, n)
    limit = min(base.width, base.height) / 4.0
    if not (abs(dx) * n < limit and abs(dy) * n < limit):  # a nan shift fails too
        raise ConfigError(
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


def _feather(mask: np.ndarray) -> np.ndarray:
    """Weight min(d / 4 px, 1), d the distance to the nearest pixel outside mask.

    Pixels beyond the frame edge do not count as outside. d**2 is the least
    dy**2 + dx**2 over offsets that land outside the mask; from 16 on the
    weight is 1, so no farther offset is tried.
    """
    h, w = mask.shape
    reach = int(_FEATHER_PX)
    full = reach * reach
    outside = np.pad(~mask, reach, constant_values=False)
    dist2 = np.where(mask, full, 0)
    for dy in range(1 - reach, reach):
        for dx in range(1 - reach, reach):
            d2 = dy * dy + dx * dx
            if 0 < d2 < full:
                near = outside[reach + dy : reach + dy + h, reach + dx : reach + dx + w]
                dist2[near & (dist2 > d2)] = d2
    return np.minimum(np.sqrt(dist2) / _FEATHER_PX, 1.0)


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
    field stays smooth. The frame edge is not a region boundary: a region
    that touches it moves at full amplitude up to the edge. Pixels outside
    the active regions never move: the ground truth is exactly zero there and
    those frame pixels equal frame 0. The arguments are checked here; each
    frame is rendered when the sequence is indexed.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 frames, got {n}")
    _check_size(width, height, n)
    if (grid.width, grid.height) != (width, height):
        raise DataError(
            f"grid is {grid.width}x{grid.height}, requested frames are {width}x{height}"
        )
    cell_min = min(grid.width // grid.cols, grid.height // grid.rows)
    limit = cell_min / 4.0
    weights: dict[str, np.ndarray] = {}
    profiles: dict[str, np.ndarray] = {}
    for motion in motions:
        if motion.region in weights:
            raise ConfigError(f"region {motion.region!r} given twice")
        if motion.offset > n - 1:
            raise ConfigError(
                f"offset frame {motion.offset} beyond last frame {n - 1}"
            )
        if motion.amplitude >= limit:
            raise ConfigError(
                f"amplitude {motion.amplitude:g} px must stay under "
                f"cell size / 4 = {limit:g} px"
            )
        weights[motion.region] = _feather(region_mask(grid, region_map, motion.region))
        profiles[motion.region] = motion.amplitude * _profile(
            n, motion.onset, motion.apex, motion.offset
        )

    base = make_texture(width, height, seed)
    truth = GroundTruth(width=width, height=height, weights=weights, profiles=profiles)
    return _render(base, truth, n), truth
