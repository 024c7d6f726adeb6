"""Exception types raised deliberately by this package."""

from __future__ import annotations

__all__ = [
    "FaceflowError",
    "DataError",
    "ConfigError",
    "MalformedHeader",
    "TruncatedPayload",
    "UnsupportedMaxval",
    "EmptySequence",
    "DimensionMismatch",
    "PyramidTooDeep",
    "DegenerateGrid",
    "OutOfBounds",
    "UnknownRegion",
    "ParseError",
    "OverlappingCells",
    "CellOutOfGrid",
    "EvenWindow",
    "InvalidThreshold",
    "EmptySeries",
    "TooSmall",
    "ExcessiveShift",
    "AmplitudeTooLarge",
    "SeriesFormatError",
]


class FaceflowError(Exception):
    """Base class for every error this package raises on purpose."""


class DataError(FaceflowError):
    """The input data is unreadable or inconsistent (CLI exit code 2)."""


class ConfigError(FaceflowError):
    """A parameter, option or region map is invalid (CLI exit code 3)."""


class MalformedHeader(DataError):
    """Buffer does not start with a valid binary PGM/PPM header."""


class TruncatedPayload(DataError):
    """Pixel payload ends before the header-declared sample count."""


class UnsupportedMaxval(DataError):
    """Header maxval exceeds the 8-bit range this decoder supports, or a sample exceeds maxval."""


class EmptySequence(DataError):
    """No frames matched the requested directory and pattern."""


class DimensionMismatch(DataError):
    """Rasters that must share dimensions do not."""


class PyramidTooDeep(ConfigError):
    """Image too small for the requested number of pyramid levels."""


class DegenerateGrid(ConfigError):
    """Grid rows/cols do not fit the frame dimensions."""


class OutOfBounds(ConfigError):
    """Pixel coordinate lies outside the frame."""


class UnknownRegion(ConfigError):
    """Region name not present in the region map."""


class ParseError(ConfigError):
    """Region-map text violates the line grammar."""


class OverlappingCells(ConfigError):
    """Two regions claim the same grid cell."""


class CellOutOfGrid(ConfigError):
    """Region references a cell outside the grid."""


class EvenWindow(ConfigError):
    """Moving-average window must be odd."""


class InvalidThreshold(ConfigError):
    """Event-detection parameter outside its valid range."""


class EmptySeries(DataError):
    """Intensity series has no rows or no regions."""


class TooSmall(ConfigError):
    """Requested texture dimensions below the generator minimum."""


class ExcessiveShift(ConfigError):
    """Cumulative translation too large for the frame size."""


class AmplitudeTooLarge(ConfigError):
    """Region displacement amplitude exceeds a quarter of the cell size."""


class SeriesFormatError(DataError):
    """series.csv content does not match the expected layout."""
