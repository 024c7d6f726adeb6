"""Binary PGM/PPM codecs, grayscale conversion, and frame-sequence loading.

All decoded intensities are normalized to values in [0, 1] so that
downstream gradient and eigenvalue thresholds are independent of bit depth.
Frame files decode to float32, a precision the flow solve keeps; an Image
made from an array of any other dtype holds float64.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FaceflowError

__all__ = [
    "Image",
    "FrameSequence",
    "encode_pgm",
    "load_sequence",
]

# One header token after any whitespace and '#' comments; empty at the end of the data.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


@dataclass(frozen=True, eq=False)
class Image:
    """Single-channel raster: values in [0, 1], shape (height, width); float32 kept, else float64."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels)
        pixels = pixels.astype(np.float32 if pixels.dtype == np.float32 else np.float64, copy=False)
        if pixels.ndim != 2 or pixels.size == 0:
            raise ConfigError("Image.pixels must be a non-empty 2-D array")
        object.__setattr__(self, "pixels", pixels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, slots=True)
class _DeferredFrame:
    """A frame of known size whose Image `make` produces when read; name is its file, if any."""

    width: int
    height: int
    make: Callable[[], Image]
    name: str = ""


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Ordered frames sharing one resolution.

    A frame is an Image, or a deferred frame that is made each time it is
    indexed (a checked file decoded, a synthetic frame rendered), so no
    such frame is kept. A frame of another size than the first is an error
    naming both frames, each by its file if it has one, else as frame i.
    """

    frames: tuple[Image | _DeferredFrame, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise DataError("frame sequence has no frames")
        first = self.frames[0]
        for i, frame in enumerate(self.frames):
            if (frame.width, frame.height) != (first.width, first.height):
                name = [getattr(f, "name", "") or f"frame {j}" for j, f in enumerate(self.frames)]
                raise DataError(f"{name[i]} is {frame.width}x{frame.height}, "
                                f"expected {first.width}x{first.height} from {name[0]}")

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int | slice) -> Image | FrameSequence:
        """The frame at index, made now if deferred; a slice is a sequence of the same frames."""
        if isinstance(index, slice):
            return FrameSequence(self.frames[index])
        frame = self.frames[index]
        return frame if isinstance(frame, Image) else frame.make()

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _parse_netpbm_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Return (width, height, maxval, payload offset) for a binary netpbm buffer.

    Header tokens are whitespace-delimited; '#' starts a comment that runs to
    end of line; exactly one whitespace byte separates maxval from the payload.
    """
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4:
        match = _HEADER_TOKEN.match(data, i)
        if not match[1]:
            raise DataError("header ended before width, height, and maxval")
        tokens.append(match[1])
        i = match.end()

    if tokens[0] != magic:
        raise DataError(f"expected magic {magic.decode()}, got {tokens[0]!r}")
    for token in tokens[1:]:
        if not token.isdigit():
            raise DataError(f"non-numeric header token {token!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:  # more digits than the interpreter's int() limit
        raise DataError("header number too long") from None
    if width < 1 or height < 1:
        raise DataError(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise DataError(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise DataError(f"invalid maxval {maxval}")
    if not data[i : i + 1].isspace():
        raise DataError("missing whitespace byte after maxval")
    return width, height, maxval, i + 1


def _decode_samples(data: bytes) -> tuple[np.ndarray, int]:
    """Raw samples, shape (height, width, channels), and maxval; P6 is colour, all else P5."""
    magic, channels = (b"P6", 3) if data[:2] == b"P6" else (b"P5", 1)
    width, height, maxval, offset = _parse_netpbm_header(data, magic)
    need = channels * width * height
    if len(data) - offset < need:
        raise DataError(f"expected {need} sample bytes, got {len(data) - offset}")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    raw = raw.reshape(height, width, channels)
    # A sample above maxval would decode to an intensity above 1; 8-bit samples cannot be.
    if maxval < 255 and raw.max() > maxval:
        raise DataError(f"sample {raw.max()} exceeds maxval {maxval}")
    return raw, maxval


def _gray(raw: np.ndarray, maxval: int) -> Image:
    """Normalized grayscale from raw samples: one channel as is, three as BT.601 luma.

    The luma 299 R + 587 G + 114 B is summed in exact integers and divided
    once by 1000 * maxval. Both are exact in float32, so r=g=b=k maps to
    the float32 nearest k/maxval, as in P5.
    """
    if raw.shape[2] == 1:
        luma, scale = raw[:, :, 0], maxval
    else:
        rgb = raw.astype(np.int64)
        luma, scale = 299 * rgb[:, :, 0] + 587 * rgb[:, :, 1] + 114 * rgb[:, :, 2], 1000 * maxval
    gray = luma.astype(np.float32)
    gray /= scale  # in place: one frame-sized float array per decode
    return Image(gray)


def encode_pgm(image: Image) -> bytes:
    """Encode an image as 8-bit binary PGM; load_sequence reads back each value's nearest k/255."""
    samples = np.clip(np.rint(image.pixels * 255), 0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + samples.tobytes()


def _natural_key(name: str) -> tuple:
    """Sort key ordering embedded integers numerically: frame2 < frame10.

    re.split puts the digit runs at the odd positions. Names that differ only
    in how a number is written, such as frame1 and frame01, sort by their text.
    """
    parts = re.split(r"(\d+)", name)
    return [int(part) if i % 2 else part for i, part in enumerate(parts)], name


def load_sequence(directory: str | Path, pattern: str = "*.pgm") -> FrameSequence:
    """Load every frame matching `pattern`, sorted by natural numeric order.

    Paths sort component by component relative to `directory`, so frames in
    subdirectories stay grouped by directory. Every file is checked here, and
    then FrameSequence checks that they share one resolution; a frame is
    decoded only when the sequence is indexed, so memory does not grow with
    the frame count. PPM files are converted to grayscale then.
    """
    root, parts = Path(directory), Path(pattern).parts
    partial_star = any("**" in part and part != "**" for part in parts)
    # pathlib cannot glob these, and rejects them differently across Python versions.
    if not parts or Path(pattern).is_absolute() or partial_star:
        raise ConfigError(f"frame pattern {pattern!r} must name files under {root}, "
                          "with '**' only as a whole path component")
    paths = sorted(
        (p for p in root.glob(pattern) if p.is_file()),
        key=lambda p: [_natural_key(part) for part in p.relative_to(root).parts],
    )
    if not paths:
        raise DataError(f"no files match {pattern!r} in {root}")

    frames = []
    for path in paths:
        height, width, _ = _read_samples(path)[0].shape
        frames.append(_DeferredFrame(width, height, partial(_read_frame, path, width, height), path.name))
    return FrameSequence(tuple(frames))


def _read_frame(path: Path, width: int, height: int) -> Image:
    """A frame that load_sequence has checked; it may have changed since, so say which one."""
    raw, maxval = _read_samples(path)
    if raw.shape[:2] != (height, width):
        raise DataError(f"{path.name} is now {raw.shape[1]}x{raw.shape[0]}, "
                        f"expected {width}x{height}")
    return _gray(raw, maxval)


def _read_samples(path: Path) -> tuple[np.ndarray, int]:
    """A PGM or PPM file's checked raw samples and maxval; a failed read or check names the file."""
    try:
        return _decode_samples(path.read_bytes())
    except FaceflowError as exc:
        raise type(exc)(f"{path.name}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path.name}: {exc.strerror or exc}") from exc
