"""The two exception types this package raises on purpose, and their common base."""

from __future__ import annotations

__all__ = ["FaceflowError", "DataError", "ConfigError"]


class FaceflowError(Exception):
    """Base class for every error this package raises on purpose."""


class DataError(FaceflowError):
    """The input data is unreadable or inconsistent (CLI exit code 2)."""


class ConfigError(FaceflowError):
    """A parameter, option or region map is invalid (CLI exit code 3)."""
