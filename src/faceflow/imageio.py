"""Binary PGM/PPM codecs, grayscale conversion, and frame-sequence loading.

All decoded intensities are normalized to float64 values in [0, 1] so that
downstream gradient and eigenvalue thresholds are independent of bit depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySequence,
    FaceflowError,
    MalformedHeader,
    TruncatedPayload,
    UnsupportedMaxval,
)

__all__ = [
    "Image",
    "RgbImage",
    "FrameSequence",
    "decode_pgm",
    "decode_ppm",
    "encode_pgm",
    "rgb_to_gray",
    "load_sequence",
]

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


@dataclass(frozen=True, eq=False)
class Image:
    """Single-channel raster: float64 values in [0, 1], shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2 or pixels.size == 0:
            raise ValueError("Image.pixels must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", pixels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Interleaved 8-bit RGB raster: uint8 values, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.uint8)
        if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
            raise ValueError("RgbImage.pixels must be a non-empty (h, w, 3) array")
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Ordered frames sharing one resolution."""

    frames: tuple[Image, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise EmptySequence("frame sequence has no frames")
        first = self.frames[0]
        for i, frame in enumerate(self.frames):
            if (frame.width, frame.height) != (first.width, first.height):
                raise DimensionMismatch(
                    f"frame {i} is {frame.width}x{frame.height}, "
                    f"expected {first.width}x{first.height}"
                )

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> Image:
        return self.frames[index]

    def __iter__(self):
        return iter(self.frames)


def _parse_netpbm_header(data: bytes, magic: bytes) -> tuple[int, int, int, bytes]:
    """Return (width, height, maxval, payload) for a binary netpbm buffer.

    Header tokens are whitespace-delimited; '#' starts a comment that runs to
    end of line; exactly one whitespace byte separates maxval from the payload.
    """
    tokens: list[bytes] = []
    i, n = 0, len(data)
    while len(tokens) < 4:
        if i >= n:
            raise MalformedHeader("header ended before width, height, and maxval")
        byte = data[i]
        if byte in _WHITESPACE:
            i += 1
        elif byte == 0x23:  # '#'
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
        else:
            start = i
            while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
                i += 1
            tokens.append(data[start:i])

    if tokens[0] != magic:
        raise MalformedHeader(f"expected magic {magic.decode()}, got {tokens[0]!r}")
    for token in tokens[1:]:
        if not token.isdigit():
            raise MalformedHeader(f"non-numeric header token {token!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise MalformedHeader(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise MalformedHeader(f"invalid maxval {maxval}")
    if i >= n or data[i] not in _WHITESPACE:
        raise MalformedHeader("missing whitespace byte after maxval")
    return width, height, maxval, data[i + 1 :]


def _decode_samples(data: bytes, magic: bytes, channels: int) -> tuple[np.ndarray, int]:
    """Raw samples, shape (height, width, channels), and the header's maxval."""
    width, height, maxval, payload = _parse_netpbm_header(data, magic)
    need = channels * width * height
    if len(payload) < need:
        raise TruncatedPayload(f"expected {need} sample bytes, got {len(payload)}")
    raw = np.frombuffer(payload[:need], dtype=np.uint8).reshape(height, width, channels)
    # A sample above maxval would decode to an intensity above 1; 8-bit samples cannot be.
    if maxval < 255 and raw.max() > maxval:
        raise UnsupportedMaxval(f"sample {raw.max()} exceeds maxval {maxval}")
    return raw, maxval


def decode_pgm(data: bytes) -> Image:
    """Decode a binary PGM (P5) buffer into a normalized grayscale image."""
    raw, maxval = _decode_samples(data, b"P5", 1)
    return Image(raw[:, :, 0].astype(np.float64) / maxval)


def decode_ppm(data: bytes) -> RgbImage:
    """Decode a binary PPM (P6) buffer, preserving the interleaved RGB bytes."""
    return RgbImage(_decode_samples(data, b"P6", 3)[0].copy())


def encode_pgm(image: Image, maxval: int = 255) -> bytes:
    """Encode an image as binary PGM; inverse of decode_pgm for maxval 255."""
    if not 1 <= maxval <= 255:
        raise UnsupportedMaxval(f"maxval {maxval} outside 1..255")
    samples = np.rint(image.pixels * maxval)
    samples = np.clip(samples, 0, maxval).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    return header + samples.tobytes()


def rgb_to_gray(img: RgbImage) -> Image:
    """Convert RGB to grayscale with BT.601 luma weights 0.299/0.587/0.114.

    Computed as (299 R + 587 G + 114 B) / 255000 in exact integer arithmetic
    before the single division, so r=g=b=k maps to exactly k/255.
    """
    return _luma(img.pixels, 255)


def _luma(rgb: np.ndarray, maxval: int) -> Image:
    """BT.601 luma of raw (h, w, 3) samples, divided once by 1000 * maxval."""
    rgb = rgb.astype(np.int64)
    luma = 299 * rgb[:, :, 0] + 587 * rgb[:, :, 1] + 114 * rgb[:, :, 2]
    return Image(luma / (1000 * maxval))


def _natural_key(name: str) -> tuple:
    """Sort key ordering embedded integers numerically: frame2 < frame10."""
    parts = re.split(r"(\d+)", name)
    return tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in parts
        if part
    )


def load_sequence(directory: str | Path, pattern: str = "*.pgm") -> FrameSequence:
    """Load every frame matching `pattern`, sorted by natural numeric order.

    PPM files are converted to grayscale on load. All frames must share one
    resolution.
    """
    root = Path(directory)
    try:
        paths = sorted(
            (p for p in root.glob(pattern) if p.is_file()),
            key=lambda p: _natural_key(p.name),
        )
    except NotImplementedError as exc:  # pathlib's answer to an absolute pattern
        raise ValueError(f"frame pattern {pattern!r} must be relative to {root}") from exc
    if not paths:
        raise EmptySequence(f"no files match {pattern!r} in {root}")

    frames: list[Image] = []
    for path in paths:
        data = path.read_bytes()
        try:
            if data[:2] == b"P6":  # luma over the file's own maxval, as a P5 frame is
                frame = _luma(*_decode_samples(data, b"P6", 3))
            else:
                frame = decode_pgm(data)
        except FaceflowError as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
        if frames and (frame.width, frame.height) != (frames[0].width, frames[0].height):
            raise DimensionMismatch(
                f"{path.name} is {frame.width}x{frame.height}, expected "
                f"{frames[0].width}x{frames[0].height} from {paths[0].name}"
            )
        frames.append(frame)
    return FrameSequence(tuple(frames))
